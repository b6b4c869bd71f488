package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	bdrmapit "repro"
	"repro/internal/alias"
	"repro/internal/asrel"
	"repro/internal/bgp"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ip2as"
	"repro/internal/ixp"
	"repro/internal/obs"
	"repro/internal/rir"
	"repro/internal/serve"
	"repro/internal/traceroute"
)

// spanStat accumulates every span of one name.
type spanStat struct {
	MS        float64 `json:"ms"`
	AllocMiB  float64 `json:"alloc_mib"`
	GC        float64 `json:"gc"`
	HeapHWMiB float64 `json:"heap_hw_mib"`
}

// tracer keeps spans in memory. Spans are flat — one layer call each,
// never nested — so a span's self time is its duration.
type tracer struct {
	on    bool
	spans map[string]*spanStat
	names []string

	heapHW atomic.Uint64 // heap high-water since the current span began
	stop   chan struct{}
	wg     sync.WaitGroup
}

var traceMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/memory/classes/heap/objects:bytes"}

func readMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(traceMetrics))
	for i, name := range traceMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, spans: map[string]*spanStat{}}
	if on {
		// Live heap is only observable by sampling. Each read
		// synchronizes with every P, so the period is kept coarse.
		t.stop = make(chan struct{})
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			s := []metrics.Sample{{Name: traceMetrics[2]}}
			for {
				select {
				case <-t.stop:
					return
				case <-tick.C:
				}
				metrics.Read(s)
				t.observeHeap(s[0].Value.Uint64())
			}
		}()
	}
	return t
}

func (t *tracer) observeHeap(v uint64) {
	for {
		cur := t.heapHW.Load()
		if v <= cur || t.heapHW.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (t *tracer) close() {
	if t.stop != nil {
		close(t.stop)
		t.wg.Wait()
		t.stop = nil
	}
}

// span runs f as one call into a layer, recording time, allocation,
// GC cycles and the heap high-water when tracing is on.
func (t *tracer) span(name string, f func() error) error {
	if !t.on {
		return f()
	}
	before := readMetrics()
	t.heapHW.Store(before[2].Value.Uint64())
	start := time.Now()
	err := f()
	el := time.Since(start)
	after := readMetrics()
	t.observeHeap(after[2].Value.Uint64())
	st := t.spans[name]
	if st == nil {
		st = &spanStat{}
		t.spans[name] = st
		t.names = append(t.names, name)
	}
	st.MS += float64(el.Nanoseconds()) / 1e6
	st.AllocMiB += float64(after[0].Value.Uint64()-before[0].Value.Uint64()) / (1 << 20)
	st.GC += float64(after[1].Value.Uint64() - before[1].Value.Uint64())
	st.HeapHWMiB = max(st.HeapHWMiB, float64(t.heapHW.Load())/(1<<20))
	return err
}

// replay holds one pass over the production order and what it counted.
type replay struct {
	r       *runner
	t       *tracer
	workers int
	counts  map[string]float64
	wall    time.Duration
	// digests of the annotations the replay computed
	inferDigest, ingestDigest uint64

	// kept for the worker sweep: the infer corpus and the loaded
	// context of each dataset, the restored ingest base and batch 1
	traces   []*traceroute.Trace
	inf, ing inputs
	base     *core.Graph
	baseSt   *ckpt.State
	baseTr   []*traceroute.Trace
	batch1   []*traceroute.Trace
}

// segment times one stretch of the production order; the traced wall
// is the sum of segments, so gate checks between them stay outside it.
func (p *replay) segment(f func() error) error {
	start := time.Now()
	err := f()
	p.wall += time.Since(start)
	return err
}

func (p *replay) count(name string, v float64) { p.counts[name] += v }

// inputs is one dataset's loaded non-trace context.
type inputs struct {
	resolver *ip2as.Resolver
	aliases  *alias.Sets
	rels     *asrel.Graph
}

// loadContext runs the per-source loaders exactly as a run does.
func (p *replay) loadContext(c ctxFiles) (inputs, error) {
	var in inputs
	var routes []bgp.Route
	err := p.t.span("bgp.read", func() error {
		return withFile(c.RIB, func(f io.Reader) (err error) {
			var st bgp.ReadStats
			routes, st, err = bgp.ReadRoutesStats(f)
			p.count("bgp.read.routes", float64(st.Routes))
			return err
		})
	})
	if err != nil {
		return in, err
	}
	var table *bgp.Table
	_ = p.t.span("bgp.table", func() error { table = bgp.NewTable(routes); return nil })
	dels := rir.New()
	if err := p.t.span("rir.read", func() error {
		return withFile(c.RIR, func(f io.Reader) error {
			st, err := rir.ReadIntoStats(dels, f)
			p.count("rir.read.records", float64(st.Records))
			return err
		})
	}); err != nil {
		return in, err
	}
	ixps := ixp.NewSet()
	if err := p.t.span("ixp.read", func() error {
		return withFile(c.IXP, func(f io.Reader) error {
			_, err := ixps.ReadListStats(f)
			p.count("ixp.read.prefixes", float64(ixps.Len()))
			return err
		})
	}); err != nil {
		return in, err
	}
	if err := p.t.span("asrel.read", func() error {
		return withFile(c.Rels, func(f io.Reader) (err error) {
			in.rels, err = asrel.Read(f)
			if err == nil {
				p.count("asrel.read.edges", float64(in.rels.NumEdges()))
			}
			return err
		})
	}); err != nil {
		return in, err
	}
	if err := p.t.span("alias.read", func() error {
		return withFile(c.Aliases, func(f io.Reader) (err error) {
			in.aliases, err = alias.ReadNodes(f)
			if err == nil {
				p.count("alias.read.groups", float64(in.aliases.NumGroups()))
			}
			return err
		})
	}); err != nil {
		return in, err
	}
	in.resolver = &ip2as.Resolver{IXPs: ixps, Table: table, Delegations: dels}
	return in, nil
}

func withFile(path string, f func(io.Reader) error) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	return f(fh)
}

// decode reads trace files with the JSONL decoder.
func (p *replay) decode(paths []string) ([]*traceroute.Trace, error) {
	var out []*traceroute.Trace
	err := p.t.span("traceroute.decode", func() error {
		for _, path := range paths {
			if err := withFile(path, func(f io.Reader) error {
				_, err := traceroute.ReadJSONLStats(f, func(t *traceroute.Trace) error {
					out = append(out, t)
					return nil
				})
				return err
			}); err != nil {
				return err
			}
			if fi, err := os.Stat(path); err == nil {
				p.count("traceroute.decode.bytes", float64(fi.Size()))
			}
		}
		return nil
	})
	p.count("traceroute.decode.traces", float64(len(out)))
	return out, err
}

// build is core.BuildGraphContext spelled out, one span per layer
// call; suffix names the worker-sweep variant.
func (p *replay) build(in inputs, traces []*traceroute.Trace, workers int, rec *obs.Recorder, suffix string) *core.Graph {
	b := core.NewBuilder(in.resolver, in.aliases)
	b.Workers = workers
	b.Rec = rec
	_ = p.t.span("ip2as.resolve"+suffix, func() error { b.PreResolve(distinctAddrs(traces)); return nil })
	_ = p.t.span("core.add_trace"+suffix, func() error {
		for _, t := range traces {
			b.AddTrace(t)
		}
		return nil
	})
	var g *core.Graph
	_ = p.t.span("core.finish"+suffix, func() error { g = b.Finish(in.rels); return nil })
	return g
}

// distinctAddrs is every distinct destination and hop address in
// first-seen order, the input core.BuildGraphContext resolves.
func distinctAddrs(traces []*traceroute.Trace) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	add := func(a netip.Addr) {
		if a.IsValid() && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, t := range traces {
		add(t.Dst)
		for _, h := range t.Hops {
			add(h.Addr)
		}
	}
	return out
}

// inferReplay is the cmd/bdrmapit order over full.jsonl: decode, load,
// resolve, build, refine, then the Result writers.
func (p *replay) inferReplay(ctx context.Context, emitRes *bdrmapit.Result, out string) error {
	var res *core.Result
	if err := p.segment(func() error {
		var err error
		if p.traces, err = p.decode([]string{p.r.ds.path(fullFile)}); err != nil {
			return err
		}
		if p.inf, err = p.loadContext(p.r.ds.context()); err != nil {
			return err
		}
		rec := obs.New()
		g := p.build(p.inf, p.traces, p.workers, rec, "")
		err = p.t.span("core.refine", func() (err error) {
			res, err = core.RunContext(ctx, g, p.inf.rels, core.Options{Workers: p.workers, Recorder: rec})
			return err
		})
		if err != nil {
			return err
		}
		rep := rec.Report()
		for k, name := range map[string]string{
			"resolve.addrs": "ip2as.resolve.addrs", "resolve.by_bgp": "ip2as.resolve.bgp",
			"resolve.by_rir": "ip2as.resolve.rir", "resolve.by_ixp": "ip2as.resolve.ixp",
			"graph.links.nexthop": "core.graph.links_n", "graph.links.echo": "core.graph.links_e",
			"graph.links.multihop": "core.graph.links_m",
		} {
			p.count(name, float64(rep.Counters[k]))
		}
		p.count("core.graph.routers", float64(len(g.Routers)))
		p.count("core.graph.interfaces", float64(len(g.Interfaces)))
		p.count("core.refine.iterations", float64(res.Iterations))
		return p.emit(emitRes, out)
	}); err != nil {
		return err
	}
	var err error
	p.inferDigest, err = annotationsDigest(res.Graph)
	return err
}

// emit runs the four artifact writers of a Result.
func (p *replay) emit(res *bdrmapit.Result, dir string) error {
	for _, w := range []struct {
		span, file string
		write      func() error
	}{
		{"emit.annotations", annFile, func() error { return ckpt.AtomicWrite(filepath.Join(dir, annFile), res.Annotations) }},
		{"emit.links", linkFile, func() error {
			return ckpt.AtomicWrite(filepath.Join(dir, linkFile), func(w io.Writer) error { return writeLinks(w, res) })
		}},
		{"emit.itdk", itdkDir, func() error { return res.WriteITDK(filepath.Join(dir, itdkDir)) }},
		{"emit.snapshot", snapFile, func() error { return res.WriteServeSnapshot(filepath.Join(dir, snapFile)) }},
	} {
		if err := p.t.span(w.span, w.write); err != nil {
			return err
		}
		p.count(w.span+".bytes", float64(treeSize(filepath.Join(dir, w.file))))
	}
	return nil
}

func treeSize(path string) int64 {
	var n int64
	_ = filepath.Walk(path, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// ingestReplay is one bdrmapit-ingest session against a copy of the
// bootstrapped store: reload the base, restore the checkpoint, then per
// batch validate, rebuild the merged graph, delta-refine and re-read
// the committed checkpoint.
func (p *replay) ingestReplay(ctx context.Context, state string) error {
	var final *core.Result
	if err := p.segment(func() error {
		var st *ckpt.State
		if err := p.t.span("ckpt.load", func() (err error) { st, err = ckpt.Load(state); return err }); err != nil {
			return err
		}
		var err error
		if p.ing, err = p.loadContext(p.r.ing.context()); err != nil {
			return err
		}
		traces, err := p.decode([]string{p.r.ing.path(baseFile)})
		if err != nil {
			return err
		}
		opts := core.Options{Workers: p.workers, Recorder: obs.New(),
			Checkpoint: &ckpt.Config{Dir: state, Resume: true, InputDigest: st.InputDigest, Lineage: st.Lineage}}
		var g *core.Graph
		if err := p.t.span("core.rebuild", func() (err error) {
			g, err = core.BuildGraphContext(ctx, traces, p.ing.resolver, p.ing.aliases, p.ing.rels, opts)
			return err
		}); err != nil {
			return err
		}
		if err := p.t.span("core.refine", func() (err error) {
			final, err = core.RunContext(ctx, g, p.ing.rels, opts)
			return err
		}); err != nil {
			return err
		}
		if err := p.t.span("ckpt.load", func() (err error) { st, err = ckpt.Load(state); return err }); err != nil {
			return err
		}
		p.base, p.baseSt, p.baseTr = final.Graph, st, traces
		lineage := st.Lineage
		for i, name := range p.r.batches {
			var batch []*traceroute.Trace
			if err := p.t.span("delta.validate", func() error {
				data, err := os.ReadFile(p.r.ing.path(name))
				if err != nil {
					return err
				}
				batch, _, err = delta.ValidateBatch(name, delta.Fingerprint(data), data, 0)
				return err
			}); err != nil {
				return err
			}
			p.count("delta.validate.traces", float64(len(batch)))
			if i == 0 {
				p.batch1 = batch
			}
			traces = append(append([]*traceroute.Trace{}, traces...), batch...)
			lineage = append(lineage, ckpt.BatchInfo{FP: uint64(i + 1), Name: name, Traces: len(batch)})
			rec := obs.New()
			// The replay's store is private, so any input digest
			// distinct per lineage keys its checkpoints.
			dopts := core.Options{Workers: p.workers, Recorder: rec,
				Checkpoint: &ckpt.Config{Dir: state, InputDigest: st.InputDigest + uint64(i+1), Lineage: lineage}}
			var mg *core.Graph
			if err := p.t.span("core.rebuild", func() (err error) {
				mg, err = core.BuildGraphContext(ctx, traces, p.ing.resolver, p.ing.aliases, p.ing.rels, dopts)
				return err
			}); err != nil {
				return err
			}
			if err := p.t.span("core.delta", func() (err error) {
				final, err = core.RunDeltaContext(ctx, mg, final.Graph, st, p.ing.rels, dopts)
				return err
			}); err != nil {
				return err
			}
			rep := rec.Report()
			p.count("core.delta.dirty_routers", float64(rep.Gauges["delta.dirty_routers"]))
			p.count("core.delta.routers", float64(len(mg.Routers)))
			p.count("core.delta.iterations", float64(final.Iterations))
			if err := p.t.span("ckpt.load", func() (err error) { st, err = ckpt.Load(state); return err }); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var err error
	p.ingestDigest, err = annotationsDigest(final.Graph)
	return err
}

// annotationsDigest is the FNV-64a of the annotations rendering
// Result.Annotations writes for a converged run.
func annotationsDigest(g *core.Graph) (uint64, error) {
	h := fnv.New64a()
	var buf []byte
	for _, rt := range g.Routers {
		for _, i := range rt.Interfaces {
			buf = i.Addr.AppendTo(buf[:0])
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, uint64(uint32(rt.Annotation)), 10)
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, uint64(uint32(i.Annotation)), 10)
			buf = append(buf, '\n')
			if _, err := h.Write(buf); err != nil {
				return 0, err
			}
		}
	}
	return h.Sum64(), nil
}

// How much work each in-process serve span does.
const (
	lookupQueries  = 200000
	handlerQueries = 20000
	handlerChecks  = 2000 // answers of the timed handler verified after
	reloadTrips    = 10
)

// serveReplay opens the snapshots, answers lookups in-process, drives
// the HTTP handler in-process, and hot-swaps a running bdrmapitd. It
// returns the handler it timed.
func (p *replay) serveReplay(ctx context.Context, d *daemon, live string) (http.Handler, error) {
	paths := p.r.serveDer.snapshots()
	var h http.Handler
	err := p.segment(func() error {
		var snaps [2]*serve.Snapshot
		var srv *serve.Server
		if err := p.t.span("serve.open", func() error {
			for i, path := range paths {
				s, err := serve.Open(path)
				if err != nil {
					return err
				}
				snaps[i] = s
			}
			srv = serve.New(serve.Config{SnapshotPath: paths[0]})
			return srv.Load()
		}); err != nil {
			return err
		}
		pop := population(snaps[0], p.r.seed)
		rng := rand.New(rand.NewSource(p.r.seed))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(pop)-1))
		var addrs []netip.Addr
		var classes []string
		for i := 0; i < lookupQueries; i++ {
			addrs = append(addrs, pop[zipf.Uint64()])
			classes = append(classes, pickClass(rng))
		}
		hits := 0
		_ = p.t.span("serve.lookup", func() error {
			s := snaps[0]
			for i, a := range addrs {
				var ok bool
				switch classes[i] {
				case "lookup":
					_, ok = s.Lookup(a)
				case "ip2as":
					_, ok = s.LookupPrefix(a)
				default:
					_, ok = s.LookupLink(a)
				}
				if ok {
					hits++
				}
			}
			return nil
		})
		p.count("serve.lookup.queries", lookupQueries)
		p.count("serve.lookup.hits", float64(hits))
		p.count("serve.lookup.misses", float64(lookupQueries-hits))
		h = srv.Handler()
		_ = p.t.span("serve.handler", func() error {
			for i := 0; i < handlerQueries; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/"+classes[i]+"?ip="+addrs[i].String(), nil))
			}
			return nil
		})
		p.count("serve.handler.requests", handlerQueries)
		swap := []swapSnap{{paths[1], snaps[1].Fingerprint()}, {paths[0], snaps[0].Fingerprint()}}
		return p.t.span("serve.reload", func() error {
			client := newControlClient()
			defer client.CloseIdleConnections()
			for i := 0; i < reloadTrips; i++ {
				if err := reloadTo(client, d.base, live, swap[i%2]); err != nil {
					return err
				}
			}
			p.count("serve.reload.count", reloadTrips)
			return nil
		})
	})
	return h, err
}

// checkHandler verifies answers of the in-process handler the replay
// timed, served over loopback, against the snapshots they name.
func (r *runner) checkHandler(ctx context.Context, h http.Handler) error {
	ts := httptest.NewServer(h)
	defer ts.Close()
	b, err := serve.Bench(ctx, serve.BenchConfig{
		BaseURL: ts.URL, Clients: 1, Requests: handlerChecks, Seed: r.seed, Addrs: r.addrs, Expected: r.exp,
	})
	if err != nil {
		return err
	}
	if ok := b.OK + b.NotFound; ok != handlerChecks {
		return fmt.Errorf("in-process handler: %d of %d answers verified: %s", ok, handlerChecks, b)
	}
	return nil
}

// pickClass draws serve's query mix: lookups dominate, with ip2as and
// link queries mixed in.
func pickClass(rng *rand.Rand) string {
	switch n := rng.Intn(10); {
	case n < 6:
		return "lookup"
	case n < 8:
		return "ip2as"
	default:
		return "link"
	}
}

// sweep repeats the parallel layer calls at workers 1…max(2, nproc),
// recording "<span>.w<k>".
func (p *replay) sweep(ctx context.Context) error {
	for k := 1; k <= max(2, runtime.NumCPU()); k++ {
		suffix := ".w" + strconv.Itoa(k)
		g := p.build(p.inf, p.traces, k, nil, suffix)
		if err := p.t.span("core.refine"+suffix, func() error {
			_, err := core.RunContext(ctx, g, p.inf.rels, core.Options{Workers: k})
			return err
		}); err != nil {
			return err
		}
		dir, err := p.r.opDir("sweep")
		if err != nil {
			return err
		}
		merged := append(append([]*traceroute.Trace{}, p.baseTr...), p.batch1...)
		opts := core.Options{Workers: k, Checkpoint: &ckpt.Config{Dir: dir, InputDigest: 1,
			Lineage: append(append([]ckpt.BatchInfo{}, p.baseSt.Lineage...), ckpt.BatchInfo{FP: 1, Name: p.r.batches[0]})}}
		var mg *core.Graph
		if err := p.t.span("core.rebuild"+suffix, func() (err error) {
			mg, err = core.BuildGraphContext(ctx, merged, p.ing.resolver, p.ing.aliases, p.ing.rels, opts)
			return err
		}); err != nil {
			return err
		}
		if err := p.t.span("core.delta"+suffix, func() error {
			_, err := core.RunDeltaContext(ctx, mg, p.base, p.baseSt, p.ing.rels, opts)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// runTraced replays the production order three times — untraced,
// with spans, untraced again — then sweeps worker counts, and reports
// the per-layer metrics.
func (r *runner) runTraced(ctx context.Context) (*result, error) {
	// The Result writers need a bdrmapit.Result; this run also checks
	// the exported entry point agrees with the layered replay.
	emitRes, err := bdrmapit.RunContext(ctx, r.ds.context().sources([]string{r.ds.path(fullFile)}),
		bdrmapit.Options{Workers: r.workers, Strict: true, WarnWriter: io.Discard})
	if err != nil {
		return nil, err
	}
	d, err := r.startServing(ctx, filepath.Join(r.work, "live.snap"))
	if err != nil {
		return nil, err
	}
	defer d.stop()

	// Untraced passes bracket the traced one, so warm caches and a
	// grown heap favour neither side of trace.overhead_frac.
	var passes [3]*replay
	for i, on := range []bool{false, true, false} {
		p := &replay{r: r, t: newTracer(on), workers: r.workers, counts: map[string]float64{}}
		passes[i] = p
		err := r.replayOnce(ctx, p, emitRes, d)
		if err == nil && on {
			err = p.sweep(ctx)
		}
		p.t.close()
		if err != nil {
			return nil, err
		}
	}
	traced := passes[1]
	untracedWall := (passes[0].wall + passes[2].wall) / 2
	self := 0.0
	for name, st := range traced.t.spans {
		if !isSweep(name) {
			self += st.MS
		}
	}
	wallMS := float64(traced.wall.Nanoseconds()) / 1e6
	m := map[string]metric{
		"trace.unattributed_frac": {1 - self/wallMS, "ratio"},
		"trace.overhead_frac":     {traced.wall.Seconds()/untracedWall.Seconds() - 1, "ratio"},
	}
	for _, name := range traced.t.names {
		st := traced.t.spans[name]
		if isSweep(name) {
			base, k := splitSweep(name)
			m[base+".ms."+k] = metric{st.MS, "ms"}
			continue
		}
		m[name+".ms"] = metric{st.MS, "ms"}
		m[name+".alloc_mib"] = metric{st.AllocMiB, "MiB"}
		m[name+".gc"] = metric{st.GC, "count"}
		m[name+".heap_hw_mib"] = metric{st.HeapHWMiB, "MiB"}
	}
	c := traced.counts
	for name, v := range c {
		m[name] = metric{v, "count"}
	}
	if ms := traced.t.spans["traceroute.decode"].MS; ms > 0 {
		m["traceroute.decode.mb_per_s"] = metric{c["traceroute.decode.bytes"] / (1 << 20) / (ms / 1000), "MB/s"}
	}
	m["core.refine.ms_per_iter"] = metric{traced.t.spans["core.refine"].MS / max(1, c["core.refine.iterations"]), "ms"}
	if c["core.delta.routers"] > 0 {
		m["core.delta.dirty_frac"] = metric{c["core.delta.dirty_routers"] / c["core.delta.routers"], "ratio"}
	}
	for _, kind := range []string{"bgp", "rir", "ixp"} {
		m["ip2as.resolve."+kind+"_share"] = metric{c["ip2as.resolve."+kind] / max(1, c["ip2as.resolve.addrs"]), "ratio"}
	}
	r.record["trace"] = map[string]any{"wall_s": traced.wall.Seconds(), "untraced_wall_s": untracedWall.Seconds(), "spans": traced.t.spans}
	out := pick(m, r.layerUnits)
	if out == nil {
		return nil, fmt.Errorf("traced run did not measure every per-layer metric")
	}
	return &result{Metrics: out}, nil
}

// replayOnce runs the three stages of one pass and checks its digests.
func (r *runner) replayOnce(ctx context.Context, p *replay, emitRes *bdrmapit.Result, d *daemon) error {
	out, err := r.opDir("replay")
	if err != nil {
		return err
	}
	if err := p.inferReplay(ctx, emitRes, out); err != nil {
		return err
	}
	r.gate("trace.infer_digest", digestEq(p.inferDigest, r.der.InferDigest))
	r.gate("trace.emit_digest", digestIs(filepath.Join(out, annFile), r.der.InferDigest))
	state := filepath.Join(out, "state")
	if err := copyDir(r.ingDer.path(bootOut, "state"), state); err != nil {
		return err
	}
	if err := p.ingestReplay(ctx, state); err != nil {
		return err
	}
	r.gate("trace.ingest_digest", digestEq(p.ingestDigest, r.ingDer.IngestRefs[joinBatches(r.batches)]))
	h, err := p.serveReplay(ctx, d, d.live)
	if err == nil {
		err = r.checkHandler(ctx, h)
	}
	r.gate("trace.serve_answers", err)
	return os.RemoveAll(out)
}

func digestEq(got, want uint64) error {
	if got != want {
		return fmt.Errorf("digest %016x, reference %016x", got, want)
	}
	return nil
}

func isSweep(name string) bool {
	_, k := splitSweep(name)
	return k != ""
}

// splitSweep splits "core.refine.w2" into ("core.refine", "w2").
func splitSweep(name string) (string, string) {
	for i := len(name) - 1; i > 0; i-- {
		if name[i] == '.' {
			if k := name[i+1:]; len(k) > 1 && k[0] == 'w' {
				if _, err := strconv.Atoi(k[1:]); err == nil {
					return name[:i], k
				}
			}
			break
		}
	}
	return name, ""
}

// pick keeps the metrics BENCHMARK.json names, failing loudly on a
// missing one rather than printing an incomplete result.
func pick(m map[string]metric, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	var missing []string
	for name, unit := range units {
		v, ok := m[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		v.Unit = unit
		out[name] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		logf("per-layer metrics not measured: %v", missing)
		return nil
	}
	return out
}
