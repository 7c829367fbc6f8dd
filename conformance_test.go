// Shared contract of the determinism conformance suites (concurrent
// replicas, event-driven vs dense stepping, host profiler, reuse profiler):
// two runs of the same
// benchmark under different stepping or observation settings must produce
// bit-identical artifacts. Every comparison is exact: wir-stats/1 counters
// compare with struct equality, wir-trace/1 streams byte-for-byte as emitted
// JSONL, energy totals as float equality on every component, and output
// images word-for-word.
package wir_test

import (
	"bytes"
	"fmt"
	"testing"

	wir "github.com/wirsim/wir"
	"github.com/wirsim/wir/internal/bench"
	"github.com/wirsim/wir/internal/trace"
)

// confResult is every observable artifact the determinism contract covers.
type confResult struct {
	cycles uint64
	stats  wir.Stats
	energy wir.EnergyBreakdown
	trace  []byte
	output []uint32
}

// conformanceModels is both machine models the contract covers.
var conformanceModels = []wir.Model{wir.Base, wir.RLPV}

// confRun executes one suite benchmark on a 4-SM machine (>1 so cross-SM
// dispatch and the quiet-SM skip mask engage; small so the suites fit CI)
// after attach has configured the GPU, and captures its artifacts.
func confRun(t *testing.T, abbr string, m wir.Model, attach func(g *wir.GPU)) confResult {
	t.Helper()
	res, err := confExec(abbr, m, attach)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// confExec is confRun reporting failure as an error, so that it may run on
// goroutines other than the test's own.
func confExec(abbr string, m wir.Model, attach func(g *wir.GPU)) (confResult, error) {
	cfg := wir.DefaultConfig(m)
	cfg.NumSMs = 4
	g, err := wir.NewGPU(cfg)
	if err != nil {
		return confResult{}, err
	}
	attach(g)
	var buf bytes.Buffer
	jw := trace.NewJSONWriter(&buf)
	jw.FilterKinds(trace.KindRetire, trace.KindBypass, trace.KindBarrier)
	g.SetTracer(jw)
	bm, err := bench.ByAbbr(abbr)
	if err != nil {
		return confResult{}, err
	}
	w, err := bm.Setup(g)
	if err != nil {
		return confResult{}, err
	}
	cycles, err := w.Run(g)
	if err != nil {
		return confResult{}, fmt.Errorf("%s/%v: %w", abbr, m, err)
	}
	if err := jw.Err(); err != nil {
		return confResult{}, err
	}
	st := g.Stats()
	return confResult{
		cycles: cycles,
		stats:  st,
		energy: wir.Energy(cfg, &st),
		trace:  buf.Bytes(),
		output: g.Mem().Snapshot(w.OutBase, w.OutWords),
	}, nil
}

// compareConf reports every artifact on which got differs from the
// reference want.
func compareConf(t *testing.T, name string, want, got confResult) {
	t.Helper()
	if want.cycles != got.cycles {
		t.Errorf("%s: cycles diverge: want %d, got %d", name, want.cycles, got.cycles)
	}
	if want.stats != got.stats {
		t.Errorf("%s: wir-stats/1 counters diverge:\nwant: %+v\ngot:  %+v", name, want.stats, got.stats)
	}
	if want.energy != got.energy {
		t.Errorf("%s: energy totals diverge:\nwant: %+v\ngot:  %+v", name, want.energy, got.energy)
	}
	if !bytes.Equal(want.trace, got.trace) {
		t.Errorf("%s: wir-trace/1 streams are not byte-identical (%d vs %d bytes)",
			name, len(want.trace), len(got.trace))
	}
	if len(want.output) != len(got.output) {
		t.Fatalf("%s: output lengths diverge", name)
	}
	for i := range want.output {
		if want.output[i] != got.output[i] {
			t.Errorf("%s: out[%d] = %#x want, %#x got", name, i, want.output[i], got.output[i])
			break
		}
	}
}
