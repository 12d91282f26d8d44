package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"unn"
	"unn/internal/engine"
	"unn/internal/geom"
	"unn/internal/kernel"
	"unn/internal/quantify"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the span that caused this one (0: none).
type span struct {
	name            string
	start, end      time.Duration // since the run began
	id, parent, req uint64
}

// tracer hands out span buffers; a nil or disabled tracer hands out
// buffers that record nothing.
type tracer struct {
	on bool
	t0 time.Time
}

func (tr *tracer) buffer() *spanBuf {
	if tr == nil || !tr.on {
		return &spanBuf{}
	}
	return &spanBuf{on: true, t0: tr.t0, spans: make([]span, 0, 1<<14)}
}

// spanBuf keeps one goroutine's spans in memory until the run ends.
type spanBuf struct {
	on    bool
	t0    time.Time
	spans []span
}

func (s *spanBuf) add(name string, start, end time.Time, id, parent, req uint64) {
	if s.on {
		s.spans = append(s.spans, span{name, start.Sub(s.t0), end.Sub(s.t0), id, parent, req})
	}
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"id":%d,"parent":%d,"req":%d}`+"\n",
			s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.id, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a reading of the handle's and the runtime's counters.
type counters struct {
	stats    unn.Stats
	epoch    uint64
	mem      runtime.MemStats
	buffered int
	flushes  uint64
}

func readCounters(h *unn.Handle) counters {
	c := counters{stats: h.Stats(), epoch: h.Epoch()}
	runtime.ReadMemStats(&c.mem)
	if sx, ok := h.Index().(*engine.ShardedIndex); ok {
		c.buffered, _, c.flushes = sx.BufferStats()
	}
	return c
}

// registrySlot is each query kind's slot in the engine's per-kind
// counters (Stats.Kinds, ShardKindCounts.Counts): the registry order,
// which the engine keeps frozen.
var registrySlot = [numQueryKinds]int{kNonzero: 0, kProbs: 1, kExpected: 2, kTopK: 3}

func (c counters) kindCount(k kind) uint64 { return c.stats.Kinds[registrySlot[k]].Count }

func (c counters) shardVisits(k kind) uint64 {
	var v uint64
	for _, s := range c.stats.ShardQueries {
		v += s.Counts[registrySlot[k]]
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer names the per-layer metrics of the JSON line, in order. The
// layer metrics of a single workload are printed beside them.
var perLayer = []struct{ name, unit string }{
	{"kernel.nonzero_scan_us", "us"}, {"kernel.expected_scan_us", "us"}, {"kernel.ns_per_row", "ns"},
	{"quantify.exact_us", "us"},
	{"shard.query_us.nonzero", "us"}, {"shard.query_us.expected", "us"},
	{"shard.query_us.probs", "us"}, {"shard.query_us.topk", "us"},
	{"shard.visits_per_query.nonzero", "count"}, {"shard.visits_per_query.expected", "count"},
	{"shard.visits_per_query.probs", "count"}, {"shard.visits_per_query.topk", "count"},
	{"engine.self_us.nonzero", "us"}, {"engine.self_us.expected", "us"},
	{"engine.self_us.probs", "us"}, {"engine.self_us.topk", "us"},
	{"cache.hit_rate", "1"}, {"cache.lookups", "count"},
	{"batch.call_ms.nonzero", "ms"}, {"batch.call_ms.expected", "ms"},
	{"batch.call_ms.probs", "ms"}, {"batch.call_ms.topk", "ms"},
	{"batch.mean_size", "count"}, {"batch.tile_occupancy", "1"}, {"batch.distinct_frac", "1"},
	{"mutate.batch_ms", "ms"}, {"mutlog.flushes", "count"}, {"mutlog.buffered", "count"},
	{"dynamic.epochs", "count"},
	{"planner.plan_ms", "ms"}, {"adaptive.replans", "count"},
	{"snapshot.restore_ms", "ms"}, {"snapshot.write_ms", "ms"}, {"snapshot.bytes", "bytes"},
	{"runtime.allocs_per_op", "count"}, {"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_ops_pct", "%"}, {"trace.overhead_p50_ms", "ms"}, {"trace.spans", "count"},
}

// quantifySamples bounds the full-dataset quantify.ExactPositive calls
// of a replay: each one sorts every location of the dataset.
const quantifySamples = 4

// layerRun collects the per-layer numbers of one traced run.
type layerRun struct {
	b     *bench
	buf   *spanBuf
	id    uint64
	vals  map[string]float64
	extra []metric
}

func (l *layerRun) nextID() uint64 { l.id++; return 1<<62 | l.id }

// timed runs fn inside a span and returns its duration.
func (l *layerRun) timed(name string, parent, req uint64, fn func()) time.Duration {
	d, _ := l.timedID(name, parent, req, fn)
	return d
}

// timedID is timed that also returns the span's id.
func (l *layerRun) timedID(name string, parent, req uint64, fn func()) (time.Duration, uint64) {
	t := time.Now()
	fn()
	d := time.Since(t)
	id := l.nextID()
	l.buf.add(name, t, t.Add(d), id, parent, req)
	return d, id
}

type topKIndex interface {
	QueryTopK(q geom.Point, k int, eps float64) ([]quantify.Prob, error)
}

// indexQuery runs one query of kind k straight on the index, below the
// engine's registry, cache and counters.
func indexQuery(ix engine.Index, k kind, q geom.Point) error {
	var err error
	switch k {
	case kNonzero:
		_, err = ix.QueryNonzero(q)
	case kExpected:
		_, _, err = ix.QueryExpected(q)
	case kProbs:
		_, err = ix.QueryProbs(q, 0)
	case kTopK:
		tk, ok := ix.(topKIndex)
		if !ok {
			return fmt.Errorf("index %s has no top-k entry point", ix.Name())
		}
		_, err = tk.QueryTopK(q, topK, 0)
	}
	return err
}

// replay times each layer's public entry point on the traced loop's
// sampled request points, below and beside the handle: the kernel scan
// over the whole dataset, the exact quantifier, the index (shard fleet)
// and a cache-less handle over the same index, one batch per kind, the
// planner, a snapshot round trip and one 64-insert BatchMutate.
func (l *layerRun) replay(h *unn.Handle, lr *loopResult) error {
	b := l.b
	ix := h.Index()
	bare := &unn.Handle{Engine: engine.NewEngine(ix, engine.Options{Workers: 1})}
	flat := kernel.FromDiscrete(b.pts)
	sc := kernel.GetScratch()
	defer kernel.PutScratch(sc)
	var (
		kernNZ, kernE, exact []float64
		shardT, engSelf      [numQueryKinds][]float64
		shardSelf            [2][]float64
		dst                  []int
	)
	for i, c := range lr.checks {
		q, req := c.q, c.req
		var sh [numQueryKinds]time.Duration
		var shID [numQueryKinds]uint64
		for k := kind(0); k < kMutate; k++ {
			// An untimed call first, so both timed calls find the
			// point's data in the CPU caches.
			err := indexQuery(ix, k, q)
			if err == nil {
				sh[k], shID[k] = l.timedID("shard."+k.String(), req, req, func() { err = indexQuery(ix, k, q) })
			}
			if err != nil {
				return fmt.Errorf("replay %s on the index: %w", k, err)
			}
			var ck check
			e := l.timed("engine."+k.String(), req, req, func() { err = ask(bare, k, q, &ck) })
			if err != nil {
				return fmt.Errorf("replay %s on the handle: %w", k, err)
			}
			shardT[k] = append(shardT[k], us(sh[k]))
			engSelf[k] = append(engSelf[k], us(e-sh[k]))
		}
		d := l.timed("kernel.nonzero", shID[kNonzero], req, func() { dst = flat.AppendNonzero(q.X, q.Y, dst[:0], sc) })
		kernNZ = append(kernNZ, us(d))
		shardSelf[0] = append(shardSelf[0], us(sh[kNonzero]-d))
		d = l.timed("kernel.expected", shID[kExpected], req, func() { flat.ExpectedArgmin(q.X, q.Y) })
		kernE = append(kernE, us(d))
		shardSelf[1] = append(shardSelf[1], us(sh[kExpected]-d))
		if i < quantifySamples {
			d = l.timed("quantify.exact", shID[kProbs], req, func() { quantify.ExactPositive(b.pts, q) })
			exact = append(exact, us(d))
		}
	}
	v := l.vals
	v["kernel.nonzero_scan_us"] = median(kernNZ)
	v["kernel.expected_scan_us"] = median(kernE)
	v["kernel.ns_per_row"] = median(kernNZ) * 1e3 / float64(max(flat.N, 1))
	v["quantify.exact_us"] = median(exact)
	for k := kind(0); k < kMutate; k++ {
		v["shard.query_us."+k.String()] = median(shardT[k])
		v["engine.self_us."+k.String()] = median(engSelf[k])
	}
	l.extra = append(l.extra,
		metric{name: "shard.self_us.nonzero", value: median(shardSelf[0]), unit: "us", note: "index NN≠0 − full-dataset kernel scan"},
		metric{name: "shard.self_us.expected", value: median(shardSelf[1]), unit: "us", note: "index E[d] − full-dataset kernel scan"})

	for k := kind(0); k < kMutate; k++ {
		var err error
		d := l.timed("batch."+k.String(), 0, 0, func() { _, err = askBatch(bare, k, lr.batchSample) })
		if err != nil {
			return fmt.Errorf("replay batch %s: %w", k, err)
		}
		v["batch.call_ms."+k.String()] = ms(d)
	}

	cal, err := engine.LoadCalibration(b.cfg.calPath)
	if err != nil {
		return err
	}
	ds := engine.FromDiscrete(b.pts)
	popt := engine.PlannerOptions{Mix: engine.Workload{Nonzero: 0.25, Probs: 1, Expected: 0.01}, Calibration: cal}
	var plans []float64
	for i := 0; i < 3; i++ {
		plans = append(plans, ms(l.timed("planner.plan", 0, 0, func() { engine.PlanDataset(ds, engine.BuildOptions{}, popt) })))
	}
	v["planner.plan_ms"] = median(plans)

	if b.w.name == "mix_drift" {
		var err error
		d := l.timed("adaptive.replan", 0, 0, func() { _, err = h.Replan() })
		if err != nil {
			return fmt.Errorf("replan: %w", err)
		}
		l.extra = append(l.extra, metric{name: "adaptive.replan_ms", value: ms(d), unit: "ms", note: "one Handle.Replan"})
	}

	var snap bytes.Buffer
	d := l.timed("snapshot.write", 0, 0, func() { err = h.Snapshot(&snap) })
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	v["snapshot.write_ms"] = ms(d)
	v["snapshot.bytes"] = float64(snap.Len())
	d = l.timed("snapshot.restore", 0, 0, func() { _, err = unn.OpenSnapshot(bytes.NewReader(snap.Bytes())) })
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	v["snapshot.restore_ms"] = ms(d)

	// One 64-insert BatchMutate, then a batch deleting the same items.
	rng := b.rng(-2)
	ins := make([]unn.Mutation, 64)
	for i, p := range randomPoints(rng, len(ins), b.side) {
		ins[i] = unn.InsertMutation(p)
	}
	var idx []int
	d = l.timed("mutate.insert_batch", 0, 0, func() { idx, err = h.BatchMutate(ins) })
	if err != nil {
		return fmt.Errorf("insert batch: %w", err)
	}
	v["mutate.batch_ms"] = ms(d)
	del := make([]unn.Mutation, len(idx))
	for i := range idx {
		del[i] = unn.DeleteMutation(idx[len(idx)-1-i])
	}
	d = l.timed("mutate.delete_batch", 0, 0, func() { _, err = h.BatchMutate(del) })
	if err != nil {
		return fmt.Errorf("delete batch: %w", err)
	}
	l.extra = append(l.extra, metric{name: "mutate.delete_batch_ms", value: ms(d), unit: "ms", note: "64-delete BatchMutate"})
	return nil
}

// loopLayers derives the per-layer counts of one loop from the handle's
// and the runtime's counters before and after it.
func (l *layerRun) loopLayers(lr *loopResult, untraced *loopResult) {
	v := l.vals
	a, z := lr.before, lr.after
	for k := kind(0); k < kMutate; k++ {
		n := float64(z.kindCount(k) - a.kindCount(k))
		visits := float64(z.shardVisits(k)) - float64(a.shardVisits(k))
		v["shard.visits_per_query."+k.String()] = ratio(max(visits, 0), n)
	}
	hits := float64(z.stats.CacheHits - a.stats.CacheHits)
	look := hits + float64(z.stats.CacheMisses-a.stats.CacheMisses)
	v["cache.hit_rate"] = ratio(hits, look)
	v["cache.lookups"] = look
	v["batch.mean_size"] = ratio(float64(z.stats.BatchQueries-a.stats.BatchQueries), float64(z.stats.Batches-a.stats.Batches))
	v["batch.tile_occupancy"] = ratio(float64(z.stats.TileLanes-a.stats.TileLanes), float64(z.stats.TileSlots-a.stats.TileSlots))
	v["batch.distinct_frac"] = ratio(float64(lr.distinct), float64(lr.points))
	v["mutlog.flushes"] = float64(z.flushes - a.flushes)
	v["mutlog.buffered"] = float64(z.buffered)
	v["dynamic.epochs"] = float64(z.epoch - a.epoch)
	v["adaptive.replans"] = float64(z.stats.Replans - a.stats.Replans)

	// The runtime's view comes from the untraced loop, free of the
	// tracer's own allocations.
	ua, uz := untraced.before.mem, untraced.after.mem
	v["runtime.allocs_per_op"] = ratio(float64(uz.Mallocs-ua.Mallocs), float64(untraced.queries))
	v["runtime.alloc_mb"] = float64(uz.TotalAlloc-ua.TotalAlloc) / 1e6
	v["runtime.gc_cycles"] = float64(uz.NumGC - ua.NumGC)
	// Printed only: a loop that allocates little runs no GC cycle, and
	// its pause then reads 0 on every run.
	l.extra = append(l.extra, metric{name: "runtime.gc_pause_ms", value: float64(uz.PauseTotalNs-ua.PauseTotalNs) / 1e6,
		unit: "ms", note: "GC pause in the untraced half"})
}
