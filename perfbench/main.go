// Command perfbench is the repository's benchmark driver. It runs one
// workload against the simulator's packages for a fixed host-time budget,
// checks every output it produces, and prints the workload's metrics as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with nothing
// attached; with -trace 1 the same workload runs once untraced and once with
// a span recorder and a CPU profile, and the metrics are the per-layer set.
// NOTES.md lists every metric, its unit and direction, and why each workload
// exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tailPct is the latency percentile reported as *_tail: the highest one
// that keeps at least ten samples beyond it on every workload at the
// configured run length (NOTES.md gives the sample counts).
const tailPct = 80

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the driver prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts is what every workload receives.
type runOpts struct {
	seed   int64
	budget time.Duration // host time the measured passes may use
	expect string        // directory of expected outputs
	work   string        // scratch directory inside the checkout
	record bool          // rewrite expected outputs instead of checking them
	tracer *tracer       // nil when untraced
	logf   func(format string, args ...any)
	rng    *rand.Rand
}

// workload runs passes until the budget is spent and reports what it saw.
type workload func(o *runOpts) (*outcome, error)

var workloads = map[string]workload{
	"suite-rlpv": suiteRLPV,
	"suite-base": suiteBase,
	"serve-mix":  serveMix,
}

func main() { os.Exit(run()) }

// run executes one invocation and returns the exit code: 0 for a correct
// run, 1 for a failed check or error, 2 for bad arguments.
func run() int {
	name := flag.String("workload", "", "workload: suite-rlpv, suite-base or serve-mix")
	seed := flag.Int64("seed", 1, "seed for the kernel order and the serve-mix request sequence")
	seconds := flag.Float64("seconds", 35, "host seconds the measured passes may use")
	traceOn := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	expect := flag.String("expect", "perfbench/expect", "directory of expected outputs")
	out := flag.String("out", ".bench_build", "scratch directory for stores and span files")
	record := flag.Bool("record", false, "rewrite the expected outputs from this run")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceOn)
		return 2
	}
	if _, err := os.Stat(*expect); err != nil && !*record {
		fmt.Fprintf(os.Stderr, "perfbench: expected outputs: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	o := &runOpts{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		expect: *expect,
		work:   work,
		record: *record,
		logf:   func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
	}
	res, err := measure(wl, *name, o, *traceOn == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload untraced and, for a traced run, once more with
// the tracer attached, and turns the outcome into the result line.
func measure(run workload, name string, o *runOpts, traced bool, out string) (*result, error) {
	if !traced {
		o.rng = newRand(o.seed)
		oc, err := run(o)
		if err != nil {
			return nil, err
		}
		oc.report(o.logf)
		return &result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: oc.endToEnd()}, nil
	}
	// The traced run splits the budget: the untraced half gives the wall
	// time the overhead ratio divides by, the traced half everything else.
	half := *o
	half.budget = o.budget / 2
	half.rng = newRand(o.seed)
	plain, err := run(&half)
	if err != nil {
		return nil, err
	}
	half.rng = newRand(o.seed)
	half.tracer = newTracer()
	if err := half.tracer.startProfile(); err != nil {
		return nil, err
	}
	oc, err := run(&half)
	prof, perr := half.tracer.stopProfile()
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	cpuNs, cpuTotal := cpuShares(prof)
	spanFile := filepath.Join(out, "spans-"+name+".jsonl")
	if err := half.tracer.writeSpans(spanFile); err != nil {
		return nil, err
	}
	o.logf("spans: %d written to %s", half.tracer.count(), spanFile)
	oc.report(o.logf)
	m := oc.perLayer(half.tracer, cpuNs, cpuTotal, o.logf)
	m["trace_overhead_ratio"] = metric{ratio(median(oc.passTimes()), median(plain.passTimes())), "ratio"}
	o.logf("trace_overhead_ratio = traced pass %.4fs / untraced pass %.4fs", median(oc.passTimes()), median(plain.passTimes()))
	return &result{
		Correct:   oc.failed == 0 && plain.failed == 0,
		Attempted: oc.attempted + plain.attempted,
		Failed:    oc.failed + plain.failed,
		Metrics:   m,
	}, nil
}

// passes runs pass until the next one would overrun the budget, always at
// least once, recording each pass's host time and peak resident memory.
// Whole passes keep every run measuring the same mix of work whatever the
// budget.
func (oc *outcome) passes(budget time.Duration, pass func() (hostTime, error)) error {
	used := 0.0
	for {
		rss := startRSSSampler()
		t, err := pass()
		peak := rss.stop()
		if err != nil {
			return err
		}
		oc.passWall = append(oc.passWall, t.wall)
		oc.passRun = append(oc.passRun, t.run())
		oc.passCPU = append(oc.passCPU, t.cpu)
		oc.peakMB = append(oc.peakMB, peak)
		used += t.wall
		if used+t.wall > budget.Seconds() {
			return nil
		}
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func median(xs []float64) float64 { return quantile(xs, 50) }

// quantile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
