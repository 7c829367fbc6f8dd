package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wirsim/wir/internal/pprofenc"
)

// span is one timed call into a layer, recorded from the driver's side of
// the call. Spans of one request share Req; Parent is the span that caused
// this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in when written out
}

// tracer keeps spans in memory for the traced run and holds its CPU
// profile. Every method is a no-op on a nil tracer, which is how untraced
// runs call them.
type tracer struct {
	t0      time.Time
	nextReq atomic.Uint64
	prof    bytes.Buffer

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newRequest() uint64 {
	if t == nil {
		return 0
	}
	return t.nextReq.Add(1)
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, req uint64) uint64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Req: req, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the closed spans named name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeSpans writes every span as one JSON line, with its self time.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sets each closed span's Self to its duration minus its closed
// children's durations. Every caller runs a span's children one after
// another, so they never overlap.
func selfTimes(spans []span) {
	child := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i := range spans {
		if s := &spans[i]; s.End >= 0 {
			s.Self = s.End - s.Start - child[s.ID]
		}
	}
}

func (t *tracer) startProfile() error { return pprof.StartCPUProfile(&t.prof) }

func (t *tracer) stopProfile() (*pprofenc.Profile, error) {
	pprof.StopCPUProfile()
	p, err := pprofenc.Parse(t.prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// repoPrefix is the import path prefix of the simulator's packages.
const repoPrefix = "github.com/wirsim/wir/internal/"

// layers are the packages host time is charged to, named as in the repo.
// A sample goes to the innermost frame that belongs to one of the repo's
// packages; samples with none go to runtime, the driver's own frames to
// driver, and repo packages not listed here (kasm, stats, config, ...) to
// other.
var layers = []string{
	"gpu", "sm", "core", "hash", "reuse", "vsb", "rename", "alloc", "regfile", "mem", "isa",
	"bench", "energy", "harness", "serve",
	"trace", "perfetto", "attr", "pprofenc", "reuseprof", "metrics",
	"runtime", "driver", "other",
}

// simLayers are the layers a simulation's own stepping runs in.
var simLayers = []string{"gpu", "sm", "core", "hash", "reuse", "vsb", "rename", "alloc", "regfile", "mem", "isa"}

// layerOf maps a profile function name to its layer, or "" for a frame from
// outside the repo (the standard library, the runtime).
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, repoPrefix):
		pkg := fn[len(repoPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "driver"
	case strings.HasPrefix(fn, "github.com/wirsim/wir."):
		return "other"
	}
	return ""
}

// cpuShares charges every sample of a CPU profile to a layer and returns the
// CPU nanoseconds per layer and in total.
func cpuShares(p *pprofenc.Profile) (map[string]int64, int64) {
	vi := len(p.SampleType) - 1
	for i, st := range p.SampleType {
		if st.Type == "cpu" {
			vi = i
		}
	}
	fnName := map[uint64]string{}
	for _, f := range p.Functions {
		fnName[f.ID] = f.Name
	}
	loc := map[uint64]*pprofenc.Location{}
	for i := range p.Locations {
		loc[p.Locations[i].ID] = &p.Locations[i]
	}
	ns := map[string]int64{}
	var total int64
	for _, s := range p.Samples {
		if vi < 0 || vi >= len(s.Values) {
			continue
		}
		v := s.Values[vi]
		total += v
		ns[sampleLayer(s.LocationIDs, loc, fnName)] += v
	}
	return ns, total
}

// sampleLayer walks a stack from the leaf, inlined frames innermost first,
// and returns the first repo layer it meets.
func sampleLayer(stack []uint64, loc map[uint64]*pprofenc.Location, fnName map[uint64]string) string {
	for _, id := range stack {
		l := loc[id]
		if l == nil {
			continue
		}
		for _, ln := range l.Lines {
			if layer := layerOf(fnName[ln.FunctionID]); layer != "" {
				return layer
			}
		}
	}
	return "runtime"
}
