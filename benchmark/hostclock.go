package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The reference host is a two-vCPU virtual machine whose speed flips
// between two regimes, about 25 % apart, every 20 to 60 seconds — with no
// load of ours on it, and invisible in /proc/stat. A 20-second run lands in
// one regime, the other, or both, so raw times of identical work spread by
// a fifth and more from run to run: wider than any bound a regression gate
// could use. The host clock measures that and takes it out.
//
// While a workload runs, a goroutine times a small fixed computation of the
// benchmark's own every probeEvery: one 3×3 convolution layer the way the
// program computes them — gather the input patches into columns, then
// multiply-accumulate the filters over them — in plain Go, with nothing of
// the program under test in it. The probe's time over probeRefNs is the
// host's slowness at that moment; smoothed over ±probeSmooth it is the
// factor every reported interval is divided by. Reported times are
// therefore times on the reference host at its undisturbed speed: on it
// they equal wall time when the host is quiet; on another host they are
// scaled by how fast it runs the probe. Parent and change are measured on
// the same clock, so comparisons between them are unaffected.
//
// The probe was chosen by measurement, against the exec_fresh grid, over
// six minutes in which the host changed regime a dozen times: a bare
// matrix product slows down more than the program does (×1.55 against
// ×1.35) and over-corrects, a memory copy does not notice the regime at
// all, and the convolution's median tracks the program one to one, taking
// the spread of 17-second windows from 0.13 to 0.04. Timer waits (the
// batcher's linger) do not speed up with the host; the serving workloads
// keep them out of the division (reply.timerMs).
//
// What the clock does not see: the host has a second kind of bad hour, met
// once in ten, in which the program's kernels (GEMM, convolutions, FP16
// quantisation: working sets beyond the second-level cache) run 25 to 50 %
// slower while this probe, which lives in the cache, and scalar code such
// as JSON decoding run as fast as ever or faster. Every time metric of
// every workload then reads 20 to 35 % worse, on this clock and off it.
// Within such an hour the probe still tracks the program (with damp,
// below); across its edge nothing here does.
const (
	probeCh, probeHW, probeK, probeOut = 8, 16, 3, 16
	probeRows                          = probeCh * probeK * probeK // rows of the column matrix
	probeCols                          = probeHW * probeHW         // one per output pixel
	probePad                           = probeHW + probeK - 1
	probeReps                          = 9
	probeEvery                         = 100 * time.Millisecond
	probeSmooth                        = time.Second
	// probeRefNs is the median repetition on the reference host in its
	// fast regime.
	probeRefNs = 219e3
	// probeTrusted is the least slowness the clock takes at face value.
	// Between 0.9 and 1.5 the probe and the program move together. Below,
	// the probe outruns the program: over ten runs in which it read 0.67
	// to 1.16, exec_fresh slowed with the 0.84th power of the reading and
	// tune_cached with the 0.56th, and when it read 0.66 for a quarter of
	// an hour the serving paths ran no faster than at 0.9. Dividing by the
	// reading itself spread tune_cached by 0.18 and refusing to go below
	// 0.9 spread exec_fresh by 0.19; going below 0.9 at half the rate, in
	// logarithms, spread them by 0.06 and 0.07.
	probeTrusted = 0.9
)

// damp is the slowness the clock reports for a probe reading.
func damp(f float64) float64 {
	if f >= probeTrusted {
		return f
	}
	return math.Sqrt(probeTrusted * f)
}

// probeBufs are one goroutine's operands.
type probeBufs struct{ in, w, cols, out []float32 }

func newProbeBufs() *probeBufs {
	p := &probeBufs{
		in:   make([]float32, probeCh*probePad*probePad),
		w:    make([]float32, probeOut*probeRows),
		cols: make([]float32, probeRows*probeCols),
		out:  make([]float32, probeOut*probeCols),
	}
	for i := range p.in {
		p.in[i] = float32(i%11) - 5
	}
	for i := range p.w {
		p.w[i] = float32(i%5) - 2
	}
	return p
}

// rep is the fixed computation.
func (p *probeBufs) rep() {
	r := 0
	for ch := 0; ch < probeCh; ch++ {
		for ky := 0; ky < probeK; ky++ {
			for kx := 0; kx < probeK; kx++ {
				dst := p.cols[r*probeCols : (r+1)*probeCols]
				for y := 0; y < probeHW; y++ {
					copy(dst[y*probeHW:(y+1)*probeHW], p.in[ch*probePad*probePad+(y+ky)*probePad+kx:])
				}
				r++
			}
		}
	}
	clear(p.out)
	for o := 0; o < probeOut; o++ {
		orow := p.out[o*probeCols : (o+1)*probeCols]
		for k := 0; k < probeRows; k++ {
			wk := p.w[o*probeRows+k]
			crow := p.cols[k*probeCols : (k+1)*probeCols]
			for j := range crow {
				orow[j] += wk * crow[j]
			}
		}
	}
}

// hostClock holds the slowness samples of one run.
type hostClock struct {
	stop chan struct{}
	done chan struct{}

	bufs []*probeBufs // one per probing goroutine, reused: the clock must not feed the collector

	mu sync.Mutex
	at []time.Time
	f  []float64 // probe time ÷ probeRefNs
}

// startHostClock starts sampling in the background; stopAndWait ends it.
func startHostClock() *hostClock {
	h := &hostClock{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			h.sample(1)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// sample times the probe on the given number of goroutines at once and
// records the host's slowness now. A workload that can stop between
// operations (exec_fresh) samples a clock of its own this way, with the
// host otherwise idle and every processor probed; the others are sampled
// from the background, one processor at a time, while they run. One clock
// is sampled from one goroutine only.
func (h *hostClock) sample(threads int) {
	for len(h.bufs) < threads {
		h.bufs = append(h.bufs, newProbeBufs())
	}
	now := time.Now()
	took := make([]float64, threads)
	var wg sync.WaitGroup
	for t := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := h.bufs[t]
			var ns [probeReps]float64
			for r := range ns {
				t0 := time.Now()
				p.rep()
				ns[r] = float64(time.Since(t0))
			}
			took[t] = median(ns[:])
		}()
	}
	wg.Wait()
	h.mu.Lock()
	h.at = append(h.at, now)
	h.f = append(h.f, mean(took)/probeRefNs)
	h.mu.Unlock()
}

func (h *hostClock) stopAndWait() {
	close(h.stop)
	<-h.done
}

// factor is the host's slowness over [t0, t1]: the median of the samples
// taken from probeSmooth before t0 to probeSmooth after t1.
func (h *hostClock) factor(t0, t1 time.Time) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	lo := sort.Search(len(h.at), func(i int) bool { return !h.at[i].Before(t0.Add(-probeSmooth)) })
	hi := sort.Search(len(h.at), func(i int) bool { return h.at[i].After(t1.Add(probeSmooth)) })
	if lo >= hi {
		// No sample that close (the clock was started late or stopped
		// early): take the nearest one.
		if len(h.f) == 0 {
			return 1
		}
		return damp(h.f[min(lo, len(h.f)-1)])
	}
	return damp(median(h.f[lo:hi]))
}

// norm converts the wall interval starting at t0 and lasting d into time
// on the reference host.
func (h *hostClock) norm(t0 time.Time, d time.Duration) time.Duration {
	return time.Duration(float64(d) / h.factor(t0, t0.Add(d)))
}

// normMs is norm in milliseconds.
func (h *hostClock) normMs(t0 time.Time, d time.Duration) float64 {
	return float64(h.norm(t0, d)) / 1e6
}

// since is the normalised time from t0 to now, in seconds.
func (h *hostClock) since(t0 time.Time) float64 {
	return h.norm(t0, time.Since(t0)).Seconds()
}
