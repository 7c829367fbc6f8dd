package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/pprofenc"
)

func testOpts(t *testing.T, expect string) *runOpts {
	t.Helper()
	return &runOpts{
		seed:   7,
		budget: time.Nanosecond, // one pass
		expect: expect,
		work:   t.TempDir(),
		logf:   t.Logf,
	}
}

// TestDoctoredDigestFails changes one kernel's expected output digest and
// requires the suite workload to report exactly that simulation as failed,
// and the result line to say the run is not correct.
func TestDoctoredDigestFails(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole suite")
	}
	dir := t.TempDir()
	var digests map[string]string
	if err := readJSON(filepath.Join("expect", digestFile), &digests); err != nil {
		t.Fatal(err)
	}
	digests["DW"] = "0000000000000000"
	if err := writeJSON(filepath.Join(dir, digestFile), digests); err != nil {
		t.Fatal(err)
	}
	res, err := measure(suiteBase, "suite-base", testOpts(t, dir), false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted != 68 {
		t.Fatalf("doctored digest: correct=%v failed=%d attempted=%d, want false 1 68", res.Correct, res.Failed, res.Attempted)
	}

	oc, err := suite(testOptsSeeded(t, dir), config.Base)
	if err != nil {
		t.Fatal(err)
	}
	if len(oc.fails) != 1 || !strings.Contains(oc.fails[0], "DW/Base") || !strings.Contains(oc.fails[0], "want 0000000000000000") {
		t.Fatalf("failure report %q does not name the doctored kernel", oc.fails)
	}
}

func testOptsSeeded(t *testing.T, expect string) *runOpts {
	o := testOpts(t, expect)
	o.rng = newRand(o.seed)
	return o
}

// TestCPUShareAttribution charges synthetic profile samples: stdlib and
// runtime leaves go to the innermost repo frame above them, inlined frames
// count innermost first, and a stack without repo frames goes to runtime.
func TestCPUShareAttribution(t *testing.T) {
	fns := []pprofenc.Function{
		{ID: 1, Name: "hash/fnv.(*sum64a).Write", Filename: "/go/src/hash/fnv/fnv.go"},
		{ID: 2, Name: "github.com/wirsim/wir/internal/serve.(*Store).get", Filename: "internal/serve/store.go"},
		{ID: 3, Name: "runtime.mallocgc", Filename: "/go/src/runtime/malloc.go"},
		{ID: 4, Name: "runtime.gcBgMarkWorker", Filename: "/go/src/runtime/mgc.go"},
		{ID: 5, Name: "github.com/wirsim/wir/internal/hash.(*H3).Sum", Filename: "internal/hash/h3.go"},
		{ID: 6, Name: "github.com/wirsim/wir/internal/core.(*Engine).lookup", Filename: "internal/core/engine.go"},
		{ID: 7, Name: "main.(*executor).exec", Filename: "perfbench/sim.go"},
		{ID: 8, Name: "github.com/wirsim/wir/internal/kasm.Parse", Filename: "internal/kasm/parse.go"},
	}
	loc := func(id uint64, fns ...uint64) pprofenc.Location {
		l := pprofenc.Location{ID: id}
		for _, f := range fns {
			l.Lines = append(l.Lines, pprofenc.Line{FunctionID: f})
		}
		return l
	}
	p := &pprofenc.Profile{
		SampleType: []pprofenc.ValueType{{Type: "samples", Unit: "count"}, {Type: "cpu", Unit: "nanoseconds"}},
		Functions:  fns,
		Locations: []pprofenc.Location{
			loc(1, 1), loc(2, 2), loc(3, 3), loc(4, 4),
			loc(5, 5, 6), // hash.Sum inlined into core.lookup
			loc(6, 7), loc(7, 8),
		},
		Samples: []pprofenc.Sample{
			{LocationIDs: []uint64{1, 2}, Values: []int64{1, 10}},    // fnv under serve's store
			{LocationIDs: []uint64{3, 4}, Values: []int64{1, 20}},    // runtime only
			{LocationIDs: []uint64{3, 5}, Values: []int64{1, 40}},    // malloc under inlined hash
			{LocationIDs: []uint64{3, 6, 2}, Values: []int64{1, 80}}, // driver frame is innermost
			{LocationIDs: []uint64{7, 6}, Values: []int64{1, 160}},   // unlisted repo package
		},
	}
	parsed, err := pprofenc.Parse(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	ns, total := cpuShares(parsed)
	want := map[string]int64{"serve": 10, "runtime": 20, "hash": 40, "driver": 80, "other": 160}
	if total != 310 {
		t.Errorf("total = %d, want 310", total)
	}
	for l, v := range want {
		if ns[l] != v {
			t.Errorf("%s = %d ns, want %d (all: %v)", l, ns[l], v, ns)
		}
	}
	if len(ns) != len(want) {
		t.Errorf("charged layers %v, want exactly %v", ns, want)
	}
}

// TestSelfTime checks self time = duration minus the children's durations,
// with nested and still-open spans.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "b", Parent: 1, Start: 40, End: 70},
		{ID: 4, Name: "c", Parent: 3, Start: 45, End: 55},
		{ID: 5, Name: "open", Parent: 1, Start: 80, End: -1},
	}
	selfTimes(spans)
	want := []int64{50, 20, 20, 10, 0}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %s self = %d, want %d", s.Name, s.Self, want[i])
		}
	}
}

// TestGenServeMix checks the serve-mix generator: a seed reproduces its
// request sequence byte for byte, another seed changes it, every key is
// submitted once fresh and serveRepeats times more by a single client, and
// every generated kasm kernel parses and runs as a job without a fault,
// reporting the cycles a direct simulation gives.
func TestGenServeMix(t *testing.T) {
	encode := func(seed int64, round int) []byte {
		seqs, err := genServeMix(seed, round)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(seqs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(encode(3, 0), encode(3, 0)) || !bytes.Equal(encode(3, 5), encode(3, 5)) {
		t.Fatal("same seed gave different request sequences")
	}
	if bytes.Equal(encode(3, 0), encode(4, 0)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	if bytes.Equal(encode(3, 0), encode(3, 1)) {
		t.Fatal("two rounds of one run gave the same order")
	}

	for seed := int64(1); seed <= 4; seed++ {
		seqs, err := genServeMix(seed, int(seed))
		if err != nil {
			t.Fatal(err)
		}
		owner := map[string]int{}
		count := map[string]int{}
		for c, seq := range seqs {
			for _, r := range seq {
				if o, ok := owner[r.Key]; ok && o != c {
					t.Errorf("seed %d: key %s submitted by two clients", seed, r.Key)
				}
				owner[r.Key] = c
				count[r.Key]++
			}
		}
		want := len(serveKernels)*len(serveSMs) + kasmPerRound
		if len(count) != want {
			t.Errorf("seed %d: %d keys, want %d", seed, len(count), want)
		}
		for k, n := range count {
			if n != 1+serveRepeats {
				t.Errorf("seed %d: key %s submitted %d times", seed, k, n)
			}
		}
	}

	if testing.Short() {
		return
	}
	o := testOpts(t, "expect")
	o.seed = 11
	s, err := startService(o, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.stop(); err != nil {
			t.Error(err)
		}
	}()
	ran := 0
	for _, seq := range s.seqs {
		for _, r := range seq {
			if r.kasm == nil || s.want[r.Key] == 0 {
				continue
			}
			if _, err := kasm.Parse(r.kasm.Name, r.kasm.Source); err != nil {
				t.Fatalf("%s: %v", r.Key, err)
			}
			res := s.do(nil, r)
			if res.err != nil {
				t.Fatalf("%s: %v", r.Key, res.err)
			}
			rep, err := metrics.ReadReport(bytes.NewReader(res.stats))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cycles != s.want[r.Key] {
				t.Errorf("%s: job reports %d cycles, direct simulation %d", r.Key, rep.Cycles, s.want[r.Key])
			}
			s.want[r.Key] = 0 // one job per key
			ran++
		}
	}
	if ran != kasmPerRound {
		t.Errorf("%d kasm jobs ran, want %d", ran, kasmPerRound)
	}
}

// TestExpectedFilesPresent keeps the checked-in expectations complete: every
// suite kernel has a digest and every serve-mix run key a cycle count.
func TestExpectedFilesPresent(t *testing.T) {
	var digests map[string]string
	if err := readJSON(filepath.Join("expect", digestFile), &digests); err != nil {
		t.Fatal(err)
	}
	if len(digests) != 34 {
		t.Errorf("%d digests, want 34", len(digests))
	}
	var cycles map[string]uint64
	if err := readJSON(filepath.Join("expect", cyclesFile), &cycles); err != nil {
		t.Fatal(err)
	}
	if len(cycles) != len(serveKernels)*len(serveSMs) {
		t.Errorf("%d serve cycle entries, want %d", len(cycles), len(serveKernels)*len(serveSMs))
	}
}

// TestPerCPULines counts only the per-CPU lines, not the aggregate one, so
// steal is divided by the CPUs it was summed over.
func TestPerCPULines(t *testing.T) {
	stat := "cpu  10 0 5 100 0 0 0 7 0 0\ncpu0 5 0 2 50 0 0 0 3 0 0\ncpu1 5 0 3 50 0 0 0 4 0 0\nintr 1 2\nctxt 9\n"
	if n := perCPULines(stat); n != 2 {
		t.Errorf("perCPULines = %d, want 2", n)
	}
}

// TestLatencyP50 takes the median over keys of each key's mean, not the
// pooled median, which would rest on a's slowest and b's fastest sample.
func TestLatencyP50(t *testing.T) {
	var l latencies
	for _, s := range []struct {
		key string
		ms  float64
	}{{"a", 10}, {"b", 31}, {"a", 18}, {"b", 20}, {"a", 11}, {"b", 33}} {
		l.add(s.key, s.ms)
	}
	if got := l.p50(); got != 20.5 {
		t.Errorf("p50 = %v, want 20.5 (pooled median %v)", got, median(l.ms))
	}
}
