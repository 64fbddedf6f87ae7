package main

import "repro/internal/obs"

// counters is a reading of the process-wide cache and pool counters the
// program already keeps in obs.Default.
type counters struct {
	packHits, packMisses, packEvictions int64
	poolHits, poolMisses                int64
}

func readCounters() counters {
	c := obs.Default.Counter
	return counters{
		packHits:      c("tensorops.pack_cache.hits").Value(),
		packMisses:    c("tensorops.pack_cache.misses").Value(),
		packEvictions: c("tensorops.pack_cache.evictions").Value(),
		poolHits:      c("tensor.pool_hits").Value(),
		poolMisses:    c("tensor.pool_misses").Value(),
	}
}

// delta reports what the workload added to the counters since c was read.
func (c counters) delta(res *results) {
	n := readCounters()
	hits, misses := float64(n.packHits-c.packHits), float64(n.packMisses-c.packMisses)
	res.set("tensorops.pack_cache.hit_share", ratio(hits, hits+misses))
	res.set("tensorops.pack_cache.evictions", float64(n.packEvictions-c.packEvictions))
	res.set("tensorops.pack_cache.bytes", obs.Default.Gauge("tensorops.pack_cache.bytes").Value())
	ph, pm := float64(n.poolHits-c.poolHits), float64(n.poolMisses-c.poolMisses)
	res.set("tensor.pool.hit_share", ratio(ph, ph+pm))
}
