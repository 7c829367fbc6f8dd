// Determinism conformance suite: event-driven stepping — quiet-SM tick
// skipping plus whole-GPU fast-forward — must be bit-identical to dense
// stepping under the shared contract of confResult/compareConf.
//
// The full suite covers every benchmark of the paper's evaluation;
// testing.Short() trims to a three-benchmark subset so the CI race pass
// stays fast.
package wir_test

import (
	"fmt"
	"testing"

	wir "github.com/wirsim/wir"
	"github.com/wirsim/wir/internal/bench"
)

// TestEventDrivenConformanceSuite holds event-driven stepping bit-identical
// to dense stepping on the benchmark suite. Dense is the reference.
func TestEventDrivenConformanceSuite(t *testing.T) {
	benches := bench.All()
	if testing.Short() {
		var trimmed []*bench.Benchmark
		for _, b := range benches {
			switch b.Abbr {
			case "KM", "HS", "BP":
				trimmed = append(trimmed, b)
			}
		}
		benches = trimmed
	}
	for _, b := range benches {
		for _, m := range conformanceModels {
			b, m := b, m
			t.Run(fmt.Sprintf("%s/%v", b.Abbr, m), func(t *testing.T) {
				t.Parallel()
				ref := confRun(t, b.Abbr, m, func(g *wir.GPU) { g.SetEventDriven(false) }) // dense
				got := confRun(t, b.Abbr, m, func(g *wir.GPU) { g.SetEventDriven(true) })
				compareConf(t, b.Abbr+"/event-driven", ref, got)
			})
		}
	}
}
