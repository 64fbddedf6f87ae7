package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"repro/internal/approx"
	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/tensorops"
)

// The exec_fresh grid. Every cell gets inputs no cache has seen, the way
// a serving request arrives: tensorops and graph do all the work, and
// serve, core, autotuner and predictor are bypassed.
var (
	execModels  = []string{"lenet", "alexnet2", "resnet18", "mobilenet"}
	execConfigs = []string{"exact", "fp16", "samp50", "perf50"}
	execBatches = []int{1, 16}
)

// execCalls is the timed call count per cell at scale 1, sized so a cell
// takes about half a second on the reference host (2 cores). Counts, not
// wall time, fix the work, so parent and change run the same calls.
var execCalls = map[string]map[int]int{
	"lenet":     {1: 360, 16: 90},
	"alexnet2":  {1: 180, 16: 30},
	"resnet18":  {1: 60, 16: 15},
	"mobilenet": {1: 60, 16: 15},
}

// minExecCalls keeps a per-call median meaningful at any scale but the
// smoke one.
const (
	minExecCalls   = 10
	smokeExecCalls = 2
)

// execConfig builds one of the four named configurations for a graph:
// exact FP32, FP16 on every approximable op, or stride-2 filter sampling /
// row perforation (FP32) on the convolutions.
func execConfig(g *graph.Graph, name string) (approx.Config, error) {
	if name == "exact" {
		return nil, nil
	}
	cfg := approx.Config{}
	ops := g.ApproxOps()
	classes := g.OpClasses()
	for i, op := range ops {
		switch {
		case name == "fp16":
			cfg[op] = approx.KnobFP16
		case classes[i] != approx.OpConv:
		case name == "samp50":
			cfg[op] = approx.SamplingKnob(2, 0, tensorops.FP32)
		case name == "perf50":
			cfg[op] = approx.PerforationKnob(tensorops.PerfRows, 2, 0, tensorops.FP32)
		}
	}
	if err := g.ValidateConfig(cfg); err != nil {
		return nil, fmt.Errorf("%s/%s: %w", g.Name, name, err)
	}
	return cfg, nil
}

// execModel is one built and prepacked zoo model with its configurations.
type execModel struct {
	name string
	m    *models.Model
	cfgs []approx.Config // indexed like execConfigs
}

// buildExecModels is exec_fresh's set-up: build the four models, plant
// labels (part of models.Build), prepack weights, build the configs.
func buildExecModels(seed int64) ([]execModel, error) {
	out := make([]execModel, 0, len(execModels))
	for _, name := range execModels {
		b, err := models.Build(name, models.Scale{Images: 16, Width: benchWidth, Seed: seed})
		if err != nil {
			return nil, err
		}
		b.Model.Graph.PrepackWeights()
		em := execModel{name: name, m: b.Model}
		for _, cn := range execConfigs {
			cfg, err := execConfig(b.Model.Graph, cn)
			if err != nil {
				return nil, err
			}
			em.cfgs = append(em.cfgs, cfg)
		}
		out = append(out, em)
	}
	return out, nil
}

// releasePacked drops a discarded model's packed weights from the
// process-wide pack cache, which is keyed by tensor identity and would
// otherwise hold them until evicted. Set-up is repeated only so that setup_s
// is a median; without this, peak_rss_mb and the cache's occupancy would
// count every repetition's model (5.6 MB each for resnet18).
func releasePacked(g *graph.Graph) {
	for _, n := range g.Nodes {
		if n.Weight != nil {
			tensorops.InvalidatePacked(n.Weight)
		}
	}
}

// tensorDigest is the sha256 of a tensor's dims and raw float32 bits.
func tensorDigest(t *tensor.Tensor) string {
	h := sha256.New()
	var b [4]byte
	for _, d := range t.Shape().Dims() {
		binary.LittleEndian.PutUint32(b[:], uint32(d))
		h.Write(b[:])
	}
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// execCell is the measurement of one (model, config, batch) cell.
type execCell struct {
	model, config string
	batch         int
	at            []time.Time     // when each timed call started
	took          []time.Duration // and how long it took
	ms            []float64       // the same on the host clock, in ms
	digest        string          // sha256 of the first output
	repeatDigest  string          // the same input executed again
}

func (c *execCell) key() string { return fmt.Sprintf("%s/%s/b%d", c.model, c.config, c.batch) }

// freshInput draws a new, non-cacheable input batch.
func freshInput(m *models.Model, batch int, rng *tensor.RNG) *tensor.Tensor {
	in := tensor.New(m.InputShape(batch).Dims()...)
	rng.FillNormal(in, 0, 1)
	return in
}

// execRounds is how many passes over the grid a run makes. A cell's calls
// are spread over all of them rather than made back to back, so a few
// seconds of a busy host slow every cell a little instead of one cell a
// lot, and each cell's median sees the whole run.
const execRounds = 10

// measureExec runs every cell: one untimed call (whose output is hashed,
// and repeated to prove determinism) and then the cell's timed calls, each
// on a new input, execRounds passes over the grid. frac scales the call
// counts; floor is the fewest calls a cell may get.
func measureExec(ms []execModel, rc runConfig, frac float64, floor int, rec *recorder, root span) []execCell {
	seed := rc.seed
	var cells []execCell
	type cellRun struct {
		em   *execModel
		cfg  approx.Config
		rng  *tensor.RNG
		left int
	}
	var runs []cellRun
	for mi := range ms {
		em := &ms[mi]
		for ci, cfg := range em.cfgs {
			for _, batch := range execBatches {
				rng := tensor.NewRNG(seed).Split(int64(1000*mi + 10*ci + batch))
				cell := execCell{model: em.name, config: execConfigs[ci], batch: batch}
				first := freshInput(em.m, batch, rng)
				cell.digest = tensorDigest(em.m.Graph.Execute(first, cfg, graph.ExecOptions{}))
				cell.repeatDigest = tensorDigest(em.m.Graph.Execute(first, cfg, graph.ExecOptions{}))
				cells = append(cells, cell)
				runs = append(runs, cellRun{em: em, cfg: cfg, rng: rng,
					left: max(floor, int(math.Round(float64(execCalls[em.name][batch])*frac)))})
			}
		}
	}
	// exec_fresh can stop between cells, so it keeps a clock of its own,
	// sampled there with nothing else running (hostclock.go).
	quiet := new(hostClock)
	op := int64(0)
	for round := execRounds; round > 0; round-- {
		for i := range runs {
			quiet.sample(nproc())
			r, cell := &runs[i], &cells[i]
			n := (r.left + round - 1) / round // what is left, evenly over the rounds left
			r.left -= n
			for ; n > 0; n-- {
				in := freshInput(r.em.m, cell.batch, r.rng)
				op++
				sp := rec.start("graph.execute", root, op)
				t0 := time.Now()
				r.em.m.Graph.Execute(in, r.cfg, graph.ExecOptions{})
				cell.at, cell.took = append(cell.at, t0), append(cell.took, time.Since(t0))
				sp.end()
			}
		}
	}
	quiet.sample(nproc())
	for i := range cells {
		c := &cells[i]
		c.ms = make([]float64, len(c.took))
		for j, d := range c.took {
			c.ms[j] = quiet.normMs(c.at[j], d)
		}
	}
	return cells
}

// execSummary reduces the cells to the workload's metrics.
type execSummary struct {
	b1Ms        float64 // geomean over batch-1 cells of the per-call median
	b1TailMs    float64 // b1Ms × pooled p95 of call ÷ cell median
	tailRank    float64
	tailN       int
	itemsPerS   float64 // geomean over batch-16 cells of 16 ÷ median
	perModelB1  map[string]float64
	perModelB16 map[string]float64
	speedup     map[string]float64 // config → geomean exact ÷ approx
}

func summarizeExec(cells []execCell) execSummary {
	s := execSummary{perModelB1: map[string]float64{}, perModelB16: map[string]float64{}, speedup: map[string]float64{}}
	med := make(map[string]float64, len(cells))
	var b1, b16, ratios []float64
	for i := range cells {
		c := &cells[i]
		m := median(c.ms)
		med[c.key()] = m
		if c.batch == 1 {
			b1 = append(b1, m)
			for _, v := range c.ms {
				ratios = append(ratios, v/m)
			}
			if c.config == "exact" {
				s.perModelB1[c.model] = m
			}
		} else {
			b16 = append(b16, float64(c.batch)/(m/1e3))
			if c.config == "exact" {
				s.perModelB16[c.model] = float64(c.batch) / (m / 1e3)
			}
		}
	}
	s.b1Ms = geomean(b1)
	s.tailN = len(ratios)
	s.tailRank = supportedTail(len(ratios), 0.95)
	s.b1TailMs = s.b1Ms * quantile(sorted(ratios), s.tailRank)
	s.itemsPerS = geomean(b16)
	for _, cn := range execConfigs[1:] {
		var sp []float64
		for i := range cells {
			c := &cells[i]
			if c.config != cn {
				continue
			}
			exact := med[fmt.Sprintf("%s/exact/b%d", c.model, c.batch)]
			sp = append(sp, exact/med[c.key()])
		}
		s.speedup[cn] = geomean(sp)
	}
	return s
}

// modelSpeedups is what the TX2 CPU device model predicts for the same
// configurations (geomean over the models, batch-16 costs): the gap to
// the measured speedups is the performance model's error on this host.
func modelSpeedups(ms []execModel) (map[string]float64, error) {
	dev := device.NewTX2CPU()
	out := map[string]float64{}
	for ci, cn := range execConfigs {
		if ci == 0 {
			continue
		}
		var sp []float64
		for _, em := range ms {
			costs, err := em.m.Graph.Costs(em.m.InputShape(16))
			if err != nil {
				return nil, err
			}
			sp = append(sp, dev.Time(costs, nil)/dev.Time(costs, em.cfgs[ci]))
		}
		out[cn] = geomean(sp)
	}
	return out, nil
}

// runExecFresh is the exec_fresh workload.
func runExecFresh(rc runConfig, res *results) error {
	// Set-up, several times over so its median means something; the last
	// build is the one measured.
	var ms []execModel
	for i := 0; i < rc.setups(); i++ {
		for _, em := range ms {
			releasePacked(em.m.Graph)
		}
		t0 := time.Now()
		var err error
		if ms, err = buildExecModels(rc.seed); err != nil {
			return err
		}
		res.setupS = append(res.setupS, rc.host.since(t0))
	}

	floor := minExecCalls
	if rc.smoke {
		floor = smokeExecCalls
	}
	c0 := readCounters()
	var cells []execCell
	if rc.trace {
		// Half the calls untraced, half traced: the difference is what the
		// benchmark's own spans cost.
		plain := summarizeExec(measureExec(ms, rc, rc.frac/2, floor, nil, span{}))
		rec := newRecorder()
		root := rec.start("bench.exec_fresh", span{}, 0)
		cells = measureExec(ms, rc, rc.frac/2, floor, rec, root)
		root.end()
		res.set("trace.overhead_share", summarizeExec(cells).b1Ms/plain.b1Ms-1)
		if err := rec.finishTrace(rc, "exec_fresh", res); err != nil {
			return err
		}
	} else {
		cells = measureExec(ms, rc, rc.frac, floor, nil, span{})
	}
	c0.delta(res)

	s := summarizeExec(cells)
	calls := 0
	for i := range cells {
		calls += len(cells[i].ms)
	}
	res.counts["cells"] = len(cells)
	res.counts["timed_calls"] = calls
	res.attempted = len(cells)
	if err := checkExecDigests(rc, cells, res); err != nil {
		return err
	}

	res.set("latency_p50_ms", s.b1Ms)
	res.set("latency_p95_ms", s.b1TailMs)
	res.set("goodput_per_s", s.itemsPerS)
	res.set("exec_b1_ms", s.b1Ms)
	res.set("exec_items_per_s", s.itemsPerS)
	res.note("latency_p95_ms: p%g of call÷cell-median pooled over the batch-1 cells (%d samples) × exec_b1_ms", 100*s.tailRank, s.tailN)
	for _, m := range execModels {
		res.set("graph.execute."+m+".b1_ms", s.perModelB1[m])
		res.set("graph.execute."+m+".b16_items_per_s", s.perModelB16[m])
	}
	model, err := modelSpeedups(ms)
	if err != nil {
		return err
	}
	for _, cn := range execConfigs[1:] {
		res.set("exec.real_speedup."+cn, s.speedup[cn])
		res.set("exec.model_speedup."+cn, model[cn])
	}
	if rc.trace {
		hostMicro(rc, res)
	}
	return nil
}

// checkExecDigests verifies every cell's first output: against
// expected.json on the expected seed, and by executing the same input
// twice on any seed.
func checkExecDigests(rc runConfig, cells []execCell, res *results) error {
	if rc.writeExpected {
		return updateExpected(func(e *expectedFile) {
			e.Exec = map[string]string{}
			for i := range cells {
				e.Exec[cells[i].key()] = cells[i].digest
			}
		})
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	pinned := rc.seed == expectedSeed
	if pinned {
		res.note("outputs checked against expected.json")
	} else {
		res.note("seed %d has no expected.json entry: outputs checked by executing each first input twice", rc.seed)
	}
	compareExecDigests(cells, exp, pinned, res)
	return nil
}

func compareExecDigests(cells []execCell, exp *expectedFile, pinned bool, res *results) {
	for i := range cells {
		c := &cells[i]
		switch {
		case c.digest != c.repeatDigest:
			res.fail("%s: two executions of one input differ", c.key())
		case pinned && exp.Exec[c.key()] != c.digest:
			res.fail("%s: output sha256 %s, expected %s", c.key(), c.digest, exp.Exec[c.key()])
		}
	}
}
