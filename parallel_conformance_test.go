// Determinism conformance: parallelism across runs — the sweep-level worker
// pool (-j N) runs independent simulations on separate goroutines — must be
// bit-identical to serial execution. Each simulation steps its SMs serially;
// what the suites below hold is that no GPU shares mutable state with
// another, so a run's artifacts do not depend on what runs beside it.
//
// The full suite covers every benchmark of the paper's evaluation plus ≥50
// fuzz seeds on Base and RLPV; testing.Short() trims both dimensions so the
// CI race pass (`go test -race -short ./...`) still watches concurrent runs.
package wir_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	wir "github.com/wirsim/wir"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/fuzz"
	"github.com/wirsim/wir/internal/harness"
)

// replicas is how many copies of a run execute side by side; the first is
// the reference the others must reproduce.
const replicas = 2

// concurrently runs replicas copies of run at once, each on its own
// goroutine, and returns their results and errors in replica order.
func concurrently[R any](run func() (R, error)) ([]R, []error) {
	res := make([]R, replicas)
	errs := make([]error, replicas)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = run()
		}(i)
	}
	wg.Wait()
	return res, errs
}

// TestParallelConformanceSuite holds concurrently running replicas of each
// benchmark bit-identical to one another.
func TestParallelConformanceSuite(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		// Trimmed -race subset: a scratchpad+barrier benchmark, a
		// texture/const benchmark, and a divergence-heavy one.
		var trimmed []*bench.Benchmark
		for _, b := range benches {
			switch b.Abbr {
			case "KM", "HS", "BP":
				trimmed = append(trimmed, b)
			}
		}
		benches = trimmed
	}
	serial := func(*wir.GPU) {}
	for _, b := range benches {
		for _, m := range conformanceModels {
			b, m := b, m
			t.Run(fmt.Sprintf("%s/%v", b.Abbr, m), func(t *testing.T) {
				t.Parallel()
				got, errs := concurrently(func() (confResult, error) {
					return confExec(b.Abbr, m, serial)
				})
				for i, err := range errs {
					if err != nil {
						t.Fatalf("replica %d: %v", i, err)
					}
				}
				for i := 1; i < replicas; i++ {
					compareConf(t, fmt.Sprintf("%s/replica%d", b.Abbr, i), got[0], got[i])
				}
			})
		}
	}
}

// TestParallelConformanceFuzz replays ≥50 generated programs on both models
// as concurrent replicas under the golden-model oracle, and demands clean,
// identical cycles, counters and output images from every replica.
func TestParallelConformanceFuzz(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		for _, m := range conformanceModels {
			seed, m := seed, m
			t.Run(fmt.Sprintf("seed%d/%v", seed, m), func(t *testing.T) {
				t.Parallel()
				o := fuzz.DefaultOptions(seed)
				o.WithShared = seed%2 == 1
				rc := fuzz.RunConfig{Model: m, NumSMs: 4, Oracle: true}
				got, errs := concurrently(func() (*fuzz.Result, error) {
					return fuzz.Execute(o, rc)
				})
				for i, res := range got {
					if errs[i] != nil {
						t.Fatalf("replica %d: %v", i, errs[i])
					}
					if res.RunErr != nil {
						t.Fatalf("seed %d replica %d: %v", seed, i, res.RunErr)
					}
				}
				ref := got[0]
				if err := fuzz.Check(ref, nil, nil); err != nil {
					t.Errorf("replica 0 not clean: %v", err)
				}
				for i := 1; i < replicas; i++ {
					res := got[i]
					if ref.Cycles != res.Cycles {
						t.Errorf("replica %d: cycles diverge: want %d, got %d", i, ref.Cycles, res.Cycles)
					}
					if ref.Stats != res.Stats {
						t.Errorf("replica %d: stats diverge:\nwant: %+v\ngot:  %+v", i, ref.Stats, res.Stats)
					}
					if len(ref.Output) != len(res.Output) {
						t.Fatalf("replica %d: output lengths diverge", i)
					}
					for j := range ref.Output {
						if ref.Output[j] != res.Output[j] {
							t.Errorf("replica %d: out[%d] = %#x want, %#x got", i, j, ref.Output[j], res.Output[j])
							break
						}
					}
					if err := fuzz.Check(res, ref.Output, nil); err != nil {
						t.Errorf("replica %d not clean: %v", i, err)
					}
				}
			})
		}
	}
}

// TestHarnessParallelismDeterminism holds the sweep-level worker pool to the
// determinism contract: a harness running on 8 workers produces the same
// results — and the same rendered report — as a serial one.
func TestHarnessParallelismDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("covered unabridged in the non-short pass")
	}
	render := func(workers int) (string, string) {
		h := harness.New()
		h.SMs = 2
		h.SetParallelism(workers)
		r, err := h.Fig17()
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		r.WriteText(&text)
		var csv bytes.Buffer
		if err := h.WriteRunsCSV(&csv); err != nil {
			t.Fatal(err)
		}
		return text.String(), csv.String()
	}
	serialText, serialCSV := render(1)
	parText, parCSV := render(8)
	if serialText != parText {
		t.Errorf("Fig17 text diverges between -j 1 and -j 8:\nserial:\n%s\nparallel:\n%s", serialText, parText)
	}
	if serialCSV != parCSV {
		t.Errorf("runs CSV diverges between -j 1 and -j 8")
	}
}
