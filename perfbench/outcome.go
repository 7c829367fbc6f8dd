package main

import (
	"fmt"

	"github.com/wirsim/wir/internal/stats"
)

// outcome is what one workload observed over its measured passes.
type outcome struct {
	attempted, failed int
	fails             []string

	setup    []hostTime // per set-up
	passWall []float64  // seconds per pass
	passRun  []float64  // wall seconds less stolen time, per pass
	peakMB   []float64  // peak resident memory per pass
	passCPU  []float64  // process CPU seconds per pass
	miss     latencies  // requests that simulated
	hit      latencies  // requests answered from a cache
	smCycles float64    // simulated cycles x SMs, all passes
	total    stats.Sim  // simulated counts, all passes

	counts    stats.Sim // simulated counts of one pass (every pass alike)
	fresh     int       // fresh harness simulations per pass
	countsSet bool

	// cpuTimed reports pass, set-up and miss times in CPU time: the suite
	// workloads run one simulation at a time, so their CPU time is the wall
	// time an uncontended host shows.
	cpuTimed bool

	storeHits, storeLookups uint64    // per serve-mix round
	getMsPerMB, putMsPerMB  []float64 // timed store calls
	entryMB                 []float64
}

// latencies are request latencies in milliseconds, each with its request's
// key.
type latencies struct {
	ms   []float64
	keys []string
}

func (l *latencies) add(key string, ms float64) {
	l.ms = append(l.ms, ms)
	l.keys = append(l.keys, key)
}

// p50 is the median over keys of each key's mean latency. Every pass
// requests the same keys, so the samples cluster by key. With an even
// number of keys the pooled median falls in the gap between two keys'
// clusters, where it rests on the slowest sample of one and the fastest of
// the other. A key's own samples can be bimodal, though the simulation is
// deterministic, so a key's median over a handful of samples jumps between
// the modes where its mean does not.
func (l *latencies) p50() float64 {
	byKey := map[string][]float64{}
	for i, k := range l.keys {
		byKey[k] = append(byKey[k], l.ms[i])
	}
	var means []float64
	for _, xs := range byKey {
		means = append(means, sum(xs)/float64(len(xs)))
	}
	return median(means)
}

func (oc *outcome) fail(msg string) {
	oc.failed++
	if len(oc.fails) < 10 {
		oc.fails = append(oc.fails, msg)
	}
}

// endPass folds the executor's per-pass counts into the outcome.
func (oc *outcome) endPass(x *executor) {
	st, n := x.endPass()
	oc.passCounts(st, n)
}

// passCounts records the first pass's simulated counts and requires every
// later pass to repeat them exactly: the simulator is deterministic.
func (oc *outcome) passCounts(st stats.Sim, fresh int) {
	if !oc.countsSet {
		oc.counts, oc.fresh, oc.countsSet = st, fresh, true
		return
	}
	if st != oc.counts || fresh != oc.fresh {
		oc.fail(fmt.Sprintf("simulated counts differ between passes (fresh %d vs %d)", fresh, oc.fresh))
	}
}

// fromExecutor takes over what the Exec hook recorded.
func (oc *outcome) fromExecutor(x *executor) {
	oc.miss = x.miss
	oc.total = x.total
	oc.smCycles = x.smCyc
	oc.attempted += len(oc.miss.ms) + len(oc.hit.ms)
	for _, f := range x.fails {
		oc.fail(f)
	}
}

// addSim adds src's counts to dst, summing cycles where stats.Sim.Add keeps
// the maximum, so Cycles totals the simulated cycles of every simulation.
func addSim(dst, src *stats.Sim) {
	c := dst.Cycles + src.Cycles
	dst.Add(src)
	dst.Cycles = c
}

// passTimes returns each pass's time in the workload's time base.
func (oc *outcome) passTimes() []float64 {
	if oc.cpuTimed {
		return oc.passCPU
	}
	return oc.passRun
}

// setupTimes returns each set-up's time in the workload's time base.
func (oc *outcome) setupTimes() []float64 {
	var out []float64
	for _, t := range oc.setup {
		if oc.cpuTimed {
			out = append(out, t.cpu)
		} else {
			out = append(out, t.run())
		}
	}
	return out
}

// endToEnd returns the metrics a user of the simulator sees. Every time,
// and the time every rate divides by, is in the workload's time base: CPU
// time on the one-simulation-at-a-time suite workloads (cpuTimed), whose
// CPU time is the wall time an uncontended host shows, and wall time less
// stolen time on serve-mix, where requests queue and wait across
// goroutines, so that a server leaving its workers idle shows as fewer jobs
// per second.
func (oc *outcome) endToEnd() map[string]metric {
	passes := sum(oc.passTimes())
	return map[string]metric{
		"warp_instrs_per_s": {ratio(float64(oc.total.Issued), passes), "1/s"},
		"sm_cycles_per_s":   {ratio(oc.smCycles, passes), "1/s"},
		"sweep_s":           {median(oc.passTimes()), "s"},
		"miss_ms_p50":       {oc.miss.p50(), "ms"},
		"miss_ms_tail":      {quantile(oc.miss.ms, tailPct), "ms"},
		"hit_ms_p50":        {oc.hit.p50(), "ms"},
		"hit_ms_tail":       {quantile(oc.hit.ms, tailPct), "ms"},
		"jobs_per_s":        {ratio(float64(len(oc.miss.ms)+len(oc.hit.ms)), passes), "1/s"},
		"setup_s":           {median(oc.setupTimes()), "s"},
		"host_mem_peak_mb":  {median(oc.peakMB), "MB"},
	}
}

// perLayer returns the traced run's per-layer metrics: host-time shares from
// the CPU profile, timed public calls from the spans, and the simulated
// counts of one pass. Ratios are logged with their numerator and
// denominator.
func (oc *outcome) perLayer(tr *tracer, cpuNs map[string]int64, cpuTotal int64, logf func(string, ...any)) map[string]metric {
	m := map[string]metric{}
	for _, l := range layers {
		m[l+".cpu_share"] = metric{ratio(float64(cpuNs[l]), float64(cpuTotal)), "share"}
	}
	logf("cpu profile: %.3fs of samples", float64(cpuTotal)/1e9)
	r := func(name string, num, den uint64) {
		m[name] = metric{ratio(float64(num), float64(den)), "ratio"}
		logf("%s = %d / %d", name, num, den)
	}
	c := func(name string, v uint64) { m[name] = metric{float64(v), "count"} }
	med := func(name, span, unit string, scale float64) {
		d := tr.durations(span)
		m[name] = metric{median(d) * scale, unit}
		logf("%s: median of %d %s calls", name, len(d), span)
	}

	med("bench.setup_ms", "bench.Setup", "ms", 1)
	med("gpu.new_ms", "gpu.New", "ms", 1)
	med("gpu.run_ms", "gpu.Run", "ms", 1)
	med("energy.model_us", "energy.Model", "us", 1000)
	med("kasm.parse_us", "kasm.Parse", "us", 1000)
	med("harness.sim_ms", "harness.Exec", "ms", 1)
	med("serve.submit_ms_p50", "serve.submit", "ms", 1)
	med("serve.artifact_ms_p50", "serve.artifact", "ms", 1)
	m["store.get_ms_per_mb"] = metric{median(oc.getMsPerMB), "ms/MB"}
	m["store.put_ms_per_mb"] = metric{median(oc.putMsPerMB), "ms/MB"}
	m["store.entry_mb"] = metric{median(oc.entryMB), "MB"}
	logf("store: %d timed gets, %d timed puts", len(oc.getMsPerMB), len(oc.putMsPerMB))

	st := &oc.counts
	rf := st.RFReads + st.RFWrites + st.RFVerify
	c("sm.warp_instrs", st.Issued)
	c("sm.sim_cycles", st.Cycles)
	r("sm.ipc", st.Issued, st.Cycles)
	r("core.bypass_ratio", st.Bypassed, st.Issued)
	c("reuse.lookups", st.ReuseLookups)
	r("reuse.hit_ratio", st.ReuseHits, st.ReuseLookups)
	c("vsb.lookups", st.VSBLookups)
	r("vsb.hit_ratio", st.VSBHits, st.VSBLookups)
	c("hash.ops", st.HashOps)
	c("regfile.accesses", rf)
	r("regfile.bank_retry_ratio", st.BankRetries, rf)
	r("regfile.verify_cache_hit_ratio", st.VerifyCHits, st.VerifyReads)
	c("alloc.ops", st.AllocatorOps)
	c("rename.ops", st.RenameReads+st.RenameWrites)
	r("mem.l1d_hit_ratio", st.L1DHits, st.L1DAccesses)
	r("mem.l2_hit_ratio", st.L2Hits, st.L2Accesses)
	c("mem.dram_accesses", st.DRAMAccesses)
	r("serve.store_hit_ratio", oc.storeHits, oc.storeLookups)
	c("harness.fresh_sims", uint64(oc.fresh))

	var simNs int64
	for _, l := range simLayers {
		simNs += cpuNs[l]
	}
	m["hash.ns_per_op"] = metric{ratio(float64(cpuNs["hash"]), float64(oc.total.HashOps)), "ns"}
	m["sm.ns_per_warp_instr"] = metric{ratio(float64(simNs), float64(oc.total.Issued)), "ns"}
	logf("hash.ns_per_op = %dns hash cpu / %d ops; sm.ns_per_warp_instr = %dns simulator cpu / %d warp instrs",
		cpuNs["hash"], oc.total.HashOps, simNs, oc.total.Issued)
	return m
}

// report logs what the result line leaves out: sample counts, the tail
// percentile, failures and their ratio to attempts.
func (oc *outcome) report(logf func(string, ...any)) {
	logf("passes: %d, wall %v s, wall less stolen %v s, process cpu %v s", len(oc.passWall), oc.passWall, oc.passRun, oc.passCPU)
	logf("setups: %v s", oc.setupTimes())
	for _, l := range []struct {
		name string
		lat  latencies
	}{{"miss", oc.miss}, {"hit", oc.hit}} {
		xs := l.lat.ms
		beyond := 0
		q := quantile(xs, tailPct)
		for _, x := range xs {
			if x > q {
				beyond++
			}
		}
		logf("%s latency: %d samples, p50 over keys %.4f ms (pooled median %.4f ms), tail p%d %.4f ms with %d samples beyond",
			l.name, len(xs), l.lat.p50(), median(xs), tailPct, q, beyond)
	}
	logf("fail_ratio = %d failed / %d attempted", oc.failed, oc.attempted)
	for _, f := range oc.fails {
		logf("FAIL: %s", f)
	}
}
