package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/energy"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/harness"
	"github.com/wirsim/wir/internal/stats"
)

// suiteSMs is the paper's Table II machine width, the harness default.
const suiteSMs = 15

const digestFile = "digests.json" // per-kernel output digests

// executor is the harness Exec hook the suite workloads install: it
// performs the fresh simulation through the public calls of each layer,
// timing the chain New + Setup + Run + Stats + energy in CPU time of the
// thread running it, then checks the output buffer and the structural
// invariants outside the timed span.
type executor struct {
	o      *runOpts
	coeff  energy.Coefficients
	digest map[string]string // expected output digest per kernel

	mu      sync.Mutex
	parent  uint64 // span the next simulations belong to, and its request
	req     uint64
	miss    latencies
	total   stats.Sim // simulated counts, all passes
	smCyc   float64   // simulated cycles x SMs, all passes
	pass    stats.Sim
	fresh   int // fresh simulations this pass
	fails   []string
	digests map[string]string // observed, for -record
}

// endPass returns the pass's simulated counts and fresh-simulation count and
// resets them for the next pass.
func (x *executor) endPass() (stats.Sim, int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	st, n := x.pass, x.fresh
	x.pass, x.fresh = stats.Sim{}, 0
	return st, n
}

func (x *executor) setParent(span, req uint64) {
	x.mu.Lock()
	x.parent, x.req = span, req
	x.mu.Unlock()
}

func newExecutor(o *runOpts) (*executor, error) {
	x := &executor{o: o, coeff: energy.Default45nm(), digests: map[string]string{}}
	if !o.record {
		if err := readJSON(filepath.Join(o.expect, digestFile), &x.digest); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// exec implements harness.Executor.
func (x *executor) exec(key, abbr string, m config.Model, cfg config.Config) (*harness.Result, error) {
	bm, err := bench.ByAbbr(abbr)
	if err != nil {
		return nil, err
	}
	tr := x.o.tracer
	x.mu.Lock()
	parent, req := x.parent, x.req
	x.mu.Unlock()
	root := tr.begin("harness.Exec", parent, req)

	// The harness runs one simulation at a time, so the thread's CPU time is
	// the chain's time on an uncontended host.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0 := threadCPUSeconds()
	sp := tr.begin("gpu.New", root, req)
	g, err := gpu.New(cfg)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	sp = tr.begin("bench.Setup", root, req)
	w, err := bm.Setup(g)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", key, err)
	}
	var cycles uint64
	for i := range w.Launches {
		sp = tr.begin("gpu.Run", root, req)
		c, err := g.Run(&w.Launches[i])
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s run: %w", key, err)
		}
		cycles += c
	}
	sp = tr.begin("gpu.Stats", root, req)
	st := g.Stats()
	tr.end(sp)
	sp = tr.begin("energy.Model", root, req)
	e := energy.Model(&x.coeff, &st, cfg.NumSMs)
	tr.end(sp)
	chain := threadCPUSeconds() - cpu0
	tr.end(root)

	// Checks stay outside the timed chain.
	var fail string
	if err := g.CheckInvariants(); err != nil {
		fail = fmt.Sprintf("%s: invariants: %v", key, err)
	}
	d := outputDigest(g, w)
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.o.record {
		x.digests[abbr] = d
	} else if want := x.digest[abbr]; d != want && fail == "" {
		fail = fmt.Sprintf("%s: output digest %s, want %s", key, d, want)
	}
	if fail != "" {
		x.fails = append(x.fails, fail)
	}
	x.miss.add(abbr, 1000*chain)
	addSim(&x.pass, &st)
	addSim(&x.total, &st)
	x.smCyc += float64(st.Cycles) * float64(cfg.NumSMs)
	x.fresh++
	return &harness.Result{Bench: abbr, Model: m, Cycles: cycles, Stats: st, Energy: e}, nil
}

// outputDigest is the FNV-64a hash of the workload's output buffer.
func outputDigest(g *gpu.GPU, w *bench.Workload) string {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range g.Mem().Snapshot(w.OutBase, w.OutWords) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// warmup instantiates each named kernel once under m on an sms-wide
// machine (gpu.New plus the kernel's Setup, no simulation): the input
// generation every simulation repeats, done here so heap growth and page
// faults land before timing.
func warmup(m config.Model, sms int, abbrs []string) error {
	for _, abbr := range abbrs {
		bm, err := bench.ByAbbr(abbr)
		if err != nil {
			return err
		}
		cfg := config.Default(m)
		cfg.NumSMs = sms
		g, err := gpu.New(cfg)
		if err != nil {
			return err
		}
		if _, err := bm.Setup(g); err != nil {
			return fmt.Errorf("%s setup: %w", abbr, err)
		}
	}
	return nil
}

// setupRepeats is how many times the suites set up before timing: setup_s
// is their median, and one set-up is only about 0.1 s of CPU.
const setupRepeats = 9

// timedSetups runs setup setupRepeats times and returns each one's host
// time.
func timedSetups(setup func() error) ([]hostTime, error) {
	var out []hostTime
	for i := 0; i < setupRepeats; i++ {
		sw := startWatch()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, sw.read())
	}
	return out, nil
}

func suiteRLPV(o *runOpts) (*outcome, error) { return suite(o, config.RLPV) }
func suiteBase(o *runOpts) (*outcome, error) { return suite(o, config.Base) }

// suite simulates every suite kernel once per pass, in a seed-chosen order,
// one at a time on the paper's 15-SM machine, through a fresh harness whose
// Exec hook is the timed chain. Each kernel is requested again right after
// and answered from the harness memo: the hit path figures that share runs
// take.
func suite(o *runOpts, m config.Model) (*outcome, error) {
	setups, err := timedSetups(func() error { return warmup(m, suiteSMs, harness.Benchmarks()) })
	if err != nil {
		return nil, err
	}
	x, err := newExecutor(o)
	if err != nil {
		return nil, err
	}
	order := harness.Benchmarks()
	o.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	oc := &outcome{setup: setups, cpuTimed: true}
	tr := o.tracer
	err = oc.passes(o.budget, func() (hostTime, error) {
		h := harness.New()
		h.Exec = x.exec
		pass := tr.begin("pass", 0, tr.newRequest())
		sw := startWatch()
		for _, abbr := range order {
			req := tr.newRequest()
			sp := tr.begin("harness.Run", pass, req)
			x.setParent(sp, req)
			if _, err := h.Run(abbr, m, nil); err != nil {
				return hostTime{}, err
			}
			tr.end(sp)
			// The repeat follows at once, so hit samples spread over the
			// whole pass instead of sharing one instant of host speed.
			sp = tr.begin("harness.Run", pass, req)
			t1 := time.Now()
			if _, err := h.Run(abbr, m, nil); err != nil {
				return hostTime{}, err
			}
			oc.hit.add(abbr, ms(time.Since(t1)))
			tr.end(sp)
		}
		t := sw.read()
		tr.end(pass)
		oc.endPass(x)
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	oc.fromExecutor(x)
	if o.record {
		return oc, writeJSON(filepath.Join(o.expect, digestFile), x.digests)
	}
	return oc, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
