package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/wirsim/wir/internal/config"
	"github.com/wirsim/wir/internal/gpu"
	"github.com/wirsim/wir/internal/kasm"
	"github.com/wirsim/wir/internal/mem"
	"github.com/wirsim/wir/internal/metrics"
	"github.com/wirsim/wir/internal/serve"
	"github.com/wirsim/wir/internal/stats"
)

const (
	cyclesFile = "serve_cycles.json" // expected cycles of every run key

	serveClients = 2 // closed-loop clients, each with its own keys
	serveWorkers = 2 // server worker pool
	serveRepeats = 4 // repeat submissions per fresh key: 1 miss, 4 hits
	kasmPerRound = 2 // seed-generated kasm keys among the round's keys
)

// The run keys: the smallest suite kernels at two machine widths, so that a
// miss (which attaches every telemetry collector) stays well under a second
// and a run holds enough misses for a tail percentile.
var (
	serveKernels = []string{"DW", "CF", "DX", "BF", "GA"}
	serveSMs     = []int{2, 4}
)

// serveReq is one generated submission.
type serveReq struct {
	Key  string          `json:"key"`  // the request's identity within the round
	Body json.RawMessage `json:"body"` // POST /v1/jobs body
	SMs  int             `json:"sms"`

	kasm *serve.KasmSpec // for kasm jobs, to compute the expected cycles
}

// genServeMix returns each client's request sequence for one round of a
// run with the given seed. The keys, the kasm kernels and the split between
// clients are the seed's; the order is drawn afresh for every round, so a
// run averages over orders rather than repeating one. Every
// key appears once fresh and serveRepeats times repeated, the fresh
// submission first. Keys are split between the clients so no two requests
// for one key are ever in flight together, and split evenly: each client
// gets every run kernel once, at a seed-chosen width, and the same number
// of kasm kernels, so a round's wall time does not depend on the split.
// Requests carry no interval and so take the server's default cadence, as
// ordinary clients do.
func genServeMix(seed int64, round int) ([][]serveReq, error) {
	rng := rand.New(rand.NewSource(seed))
	mine := make([][]serveReq, serveClients)
	for _, abbr := range serveKernels {
		order := rng.Perm(len(serveSMs))
		for i, sms := range serveSMs {
			body, err := json.Marshal(serve.JobRequest{Kind: "run", Bench: abbr, SMs: sms})
			if err != nil {
				return nil, err
			}
			c := order[i] % serveClients
			mine[c] = append(mine[c], serveReq{Key: fmt.Sprintf("%s/%d", abbr, sms), Body: body, SMs: sms})
		}
	}
	for i := 0; i < kasmPerRound; i++ {
		ks := genKasm(rng, fmt.Sprintf("g%d_%d", seed, i))
		sms := serveSMs[rng.Intn(len(serveSMs))]
		body, err := json.Marshal(serve.JobRequest{Kind: "kasm", SMs: sms, Kasm: ks})
		if err != nil {
			return nil, err
		}
		c := i % serveClients
		mine[c] = append(mine[c], serveReq{Key: fmt.Sprintf("kasm:%s/%d", ks.Name, sms), Body: body, SMs: sms, kasm: ks})
	}

	rng = rand.New(rand.NewSource(seed + 1_000_003*int64(round+1)))
	seqs := make([][]serveReq, serveClients)
	for c, keys := range mine {
		var seq []serveReq
		for _, k := range keys {
			for r := 0; r <= serveRepeats; r++ {
				seq = append(seq, k)
			}
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		seqs[c] = seq
	}
	return seqs, nil
}

// genKasm writes a small kernel: each thread loads one of mask+1 shared
// inputs, folds a seed-chosen operation over it n times and stores the
// result, so warps repeat each other's computations as the paper's
// kernels do.
func genKasm(rng *rand.Rand, name string) *serve.KasmSpec {
	masks := []int{15, 63, 255}
	ops := []string{"iadd", "imul", "xor"}
	mask := masks[rng.Intn(len(masks))]
	op := ops[rng.Intn(len(ops))]
	k := 1 + rng.Intn(99)
	const n, grid, dim = 8, 4, 128 // fixed, so every seed's round costs alike
	in := mask + 1
	src := fmt.Sprintf(`// %s: out[gid] = fold(%s, in[gid & %d], #%d) over %d steps
        s2r   r0, %%ctaid.x
        s2r   r1, %%ntid.x
        s2r   r2, %%tid.x
        imad  r3, r0, r1, r2
        and   r4, r3, #%d
        shl   r4, r4, #2
        ld.global r5, [r4]
        movi  r6, #0
loop:   %s  r5, r5, #%d
        iadd  r6, r6, #1
        isetp.lt p0, r6, #%d
        bra   p0, loop
        shl   r3, r3, #2
        st.global [r3+%d], r5
        exit
`, name, op, mask, k, n, mask, op, k, n, 4*in)
	return &serve.KasmSpec{Name: name, Source: src, GridX: grid, DimX: dim, GlobalWords: in + grid*dim}
}

// kasmCycles simulates a generated kernel directly on the simulator, on the
// machine the server would build for the job, and returns its cycles: the
// reference the service's report must match.
func kasmCycles(tr *tracer, r serveReq) (uint64, error) {
	ks := r.kasm
	sp := tr.begin("kasm.Parse", 0, tr.newRequest())
	k, err := kasm.Parse(ks.Name, ks.Source)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	cfg := config.Default(config.RLPV)
	cfg.NumSMs = r.SMs
	cfg.WatchdogCycles = mem.AutoWatchdog(&cfg)
	g, err := gpu.New(cfg)
	if err != nil {
		return 0, err
	}
	g.Mem().Alloc(ks.GlobalWords)
	if _, err := g.Run(&gpu.Launch{Kernel: k, GridX: ks.GridX, DimX: ks.DimX}); err != nil {
		return 0, fmt.Errorf("%s: %w", r.Key, err)
	}
	return g.Stats().Cycles, nil
}

// service is one set-up of serve-mix: the request sequence, the expected
// cycles, and a server on loopback over a fresh store.
type service struct {
	seqs   [][]serveReq
	want   map[string]uint64
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client
	done   chan error
}

func startService(o *runOpts, round int, runCycles map[string]uint64) (*service, error) {
	seqs, err := genServeMix(o.seed, round)
	if err != nil {
		return nil, err
	}
	want := map[string]uint64{}
	for k, v := range runCycles {
		want[k] = v
	}
	for _, seq := range seqs {
		for _, r := range seq {
			if _, ok := want[r.Key]; !ok && r.kasm != nil {
				if want[r.Key], err = kasmCycles(o.tracer, r); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, sms := range serveSMs {
		if err := warmup(config.RLPV, sms, serveKernels); err != nil {
			return nil, err
		}
	}
	dir, err := os.MkdirTemp(o.work, "store-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{StoreDir: dir, Workers: serveWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	s := &service{
		seqs: seqs, want: want, srv: srv,
		http:   &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server and the job server down, waits for both, and
// removes the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.srv.Drain()
	if rerr := os.RemoveAll(s.srv.Store().Path("")); err == nil {
		err = rerr
	}
	return err
}

// jobResult is what one closed-loop request saw.
type jobResult struct {
	req   serveReq
	fresh bool // first submission of its key in the round
	hit   bool
	hash  string
	lat   time.Duration
	stats []byte
	err   error
}

// do submits one job, follows its /events stream to the end and fetches its
// stats.json.
func (s *service) do(tr *tracer, r serveReq) jobResult {
	res := jobResult{req: r}
	req := tr.newRequest()
	root := tr.begin("serve.request", 0, req)
	defer tr.end(root)
	t0 := time.Now()

	sp := tr.begin("serve.submit", root, req)
	var view serve.JobView
	err := s.call(http.MethodPost, "/v1/jobs", r.Body, http.StatusAccepted, func(b io.Reader) error {
		return json.NewDecoder(b).Decode(&view)
	})
	tr.end(sp)
	if err != nil {
		res.err = fmt.Errorf("submit %s: %w", r.Key, err)
		return res
	}
	res.hash = view.Hash

	sp = tr.begin("serve.events", root, req)
	var last serve.JobEvent
	err = s.call(http.MethodGet, "/v1/jobs/"+view.ID+"/events", nil, http.StatusOK, func(b io.Reader) error {
		sc := bufio.NewScanner(b)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				return err
			}
		}
		return sc.Err()
	})
	tr.end(sp)
	if err == nil && (!last.Done || last.State != serve.StateDone || last.Err != nil) {
		err = fmt.Errorf("job %s ended %s: %+v", view.ID, last.State, last.Err)
	}
	if err != nil {
		res.err = fmt.Errorf("events %s: %w", r.Key, err)
		return res
	}
	res.hit = last.Hit

	sp = tr.begin("serve.artifact", root, req)
	err = s.call(http.MethodGet, "/v1/jobs/"+view.ID+"/artifacts/"+serve.ArtStats, nil, http.StatusOK, func(b io.Reader) error {
		var rerr error
		res.stats, rerr = io.ReadAll(b)
		return rerr
	})
	tr.end(sp)
	res.lat = time.Since(t0)
	if err != nil {
		res.err = fmt.Errorf("stats.json %s: %w", r.Key, err)
	}
	return res
}

func (s *service) call(method, path string, body []byte, want int, read func(io.Reader) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return read(resp.Body)
}

// round drives every client's sequence to completion against the service
// and returns the results in per-client order, with the wall time.
func (s *service) round(tr *tracer) ([][]jobResult, hostTime) {
	out := make([][]jobResult, len(s.seqs))
	var wg sync.WaitGroup
	sw := startWatch()
	for c, seq := range s.seqs {
		wg.Add(1)
		go func(c int, seq []serveReq) {
			defer wg.Done()
			seen := map[string]bool{}
			for _, r := range seq {
				res := s.do(tr, r)
				res.fresh = !seen[r.Key]
				seen[r.Key] = true
				out[c] = append(out[c], res)
			}
		}(c, seq)
	}
	wg.Wait()
	return out, sw.read()
}

// serveMix runs rounds against a freshly set-up wirserve on loopback: two
// closed-loop clients each submit their sequence, wait on /events, then
// fetch stats.json. A fresh store per round makes every round the same
// mix of misses (which simulate with all telemetry attached and write the
// store) and hits (which read it).
func serveMix(o *runOpts) (*outcome, error) {
	runCycles := map[string]uint64{}
	if !o.record {
		if err := readJSON(filepath.Join(o.expect, cyclesFile), &runCycles); err != nil {
			return nil, err
		}
	}
	oc := &outcome{}
	tr := o.tracer
	recorded := map[string]uint64{}
	round := 0
	err := oc.passes(o.budget, func() (hostTime, error) {
		sw := startWatch()
		s, err := startService(o, round, runCycles)
		round++
		if err != nil {
			return hostTime{}, err
		}
		oc.setup = append(oc.setup, sw.read())
		results, t := s.round(tr)
		oc.checkRound(s, results, recorded, o.record, t.run()/t.wall)
		hits, misses, _, _ := s.srv.Store().Counters()
		oc.storeHits, oc.storeLookups = hits, hits+misses
		if tr != nil {
			if err := oc.timeStore(s.srv.Store()); err != nil {
				s.stop()
				return hostTime{}, err
			}
		}
		return t, s.stop()
	})
	if err != nil {
		return nil, err
	}
	if o.record {
		return oc, writeJSON(filepath.Join(o.expect, cyclesFile), recorded)
	}
	return oc, nil
}

// checkRound checks every job of a round and folds its latencies and
// simulated counts into the outcome. Latencies are scaled by runShare, the
// part of the round's wall time the hypervisor did not steal. A key's first submission must simulate
// and report the expected cycles; each repeat must be a store hit whose
// stats.json is byte-identical to the one the miss produced.
func (oc *outcome) checkRound(s *service, results [][]jobResult, recorded map[string]uint64, record bool, runShare float64) {
	var pass stats.Sim
	missStats := map[string][]byte{}
	for _, rs := range results {
		for _, r := range rs {
			oc.attempted++
			if r.err != nil {
				oc.fail(r.err.Error())
				continue
			}
			if r.hit {
				oc.hit.add(r.req.Key, ms(r.lat)*runShare)
			} else {
				oc.miss.add(r.req.Key, ms(r.lat)*runShare)
			}
			if r.fresh == r.hit {
				oc.fail(fmt.Sprintf("%s: hit=%v on a %s submission", r.req.Key, r.hit, map[bool]string{true: "first", false: "repeat"}[r.fresh]))
				continue
			}
			if r.hit {
				if !bytes.Equal(r.stats, missStats[r.req.Key]) {
					oc.fail(fmt.Sprintf("%s: hit stats.json differs from the miss's (%d vs %d bytes)", r.req.Key, len(r.stats), len(missStats[r.req.Key])))
				}
				continue
			}
			missStats[r.req.Key] = r.stats
			rep, err := metrics.ReadReport(bytes.NewReader(r.stats))
			if err != nil {
				oc.fail(fmt.Sprintf("%s: stats.json: %v", r.req.Key, err))
				continue
			}
			var st stats.Sim
			if b, err := json.Marshal(rep.Counters); err != nil || json.Unmarshal(b, &st) != nil {
				oc.fail(fmt.Sprintf("%s: stats.json counters unreadable", r.req.Key))
				continue
			}
			if rep.ConfigHash != r.hash {
				oc.fail(fmt.Sprintf("%s: config_hash %s, job hash %s", r.req.Key, rep.ConfigHash, r.hash))
			}
			if want, ok := s.want[r.req.Key]; (ok || !record) && rep.Cycles != want {
				oc.fail(fmt.Sprintf("%s: %d cycles, want %d", r.req.Key, rep.Cycles, want))
			}
			if r.req.kasm == nil {
				recorded[r.req.Key] = rep.Cycles
				addSim(&pass, &st)
			}
			addSim(&oc.total, &st)
			oc.smCycles += float64(rep.Cycles) * float64(rep.SMs)
		}
	}
	oc.passCounts(pass, 0)
}

// timeStore times a Get and a Put of every entry the round left in the
// store, per MB of entry file. The Put rewrites the bytes Get returned.
func (oc *outcome) timeStore(st *serve.Store) error {
	ents, err := os.ReadDir(st.Path(""))
	if err != nil {
		return err
	}
	var toks []string
	for _, e := range ents {
		if serve.ValidToken(e.Name()) {
			toks = append(toks, e.Name())
		}
	}
	sort.Strings(toks)
	for _, tok := range toks {
		fi, err := os.Stat(st.Path(tok))
		if err != nil {
			return err
		}
		mb := float64(fi.Size()) / (1 << 20)
		t0 := time.Now()
		arts, err := st.Get(tok)
		if err != nil {
			return fmt.Errorf("store get %s: %w", tok, err)
		}
		get := time.Since(t0)
		t0 = time.Now()
		if err := st.Put(tok, arts); err != nil {
			return fmt.Errorf("store put %s: %w", tok, err)
		}
		put := time.Since(t0)
		oc.getMsPerMB = append(oc.getMsPerMB, ms(get)/mb)
		oc.putMsPerMB = append(oc.putMsPerMB, ms(put)/mb)
		oc.entryMB = append(oc.entryMB, mb)
	}
	return nil
}
