package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"unn"
	"unn/internal/constructions"
	"unn/internal/geom"
	"unn/internal/quantify"
)

// kind is a request kind: the four query kinds, then mutations.
type kind int

const (
	kNonzero kind = iota
	kExpected
	kProbs
	kTopK
	kMutate
	numKinds
)

var kindNames = [numKinds]string{"nonzero", "expected", "probs", "topk", "mutate"}

// numQueryKinds counts the query kinds (everything before kMutate).
const numQueryKinds = int(kMutate)

// topK is the k of every top-k request.
const topK = 10

func (k kind) String() string { return kindNames[k] }

// pickKind maps u ∈ [0,1) onto kinds by the cumulative shares in mix.
func pickKind(u float64, mix []share) kind {
	for _, s := range mix {
		if u < s.upTo {
			return s.kind
		}
	}
	return mix[len(mix)-1].kind
}

type share struct {
	kind kind
	upTo float64
}

// queryMix is the 40% NN≠0 / 30% E[d] / 20% π / 10% top-10 mix.
var queryMix = []share{{kNonzero, 0.4}, {kExpected, 0.7}, {kProbs, 0.9}, {kTopK, 1}}

// The two halves of mix_drift: π-heavy, then E[d]-heavy.
var (
	preDriftMix  = []share{{kProbs, 0.8}, {kNonzero, 1}}
	postDriftMix = []share{{kExpected, 0.9}, {kNonzero, 1}}
)

// workload is one named traffic shape over one kind of handle.
type workload struct {
	name string
	n    int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// prepare runs once before set-up, untimed.
	prepare func(b *bench) error
	// open builds or restores one handle.
	open func(b *bench) (*unn.Handle, error)
	// loop drives the handle for b.cfg.dur.
	loop func(b *bench, h *unn.Handle, tr *tracer) (*loopResult, error)
	// warmMix is the query mix of the warm-up before each measured loop.
	warmMix []share
	// stateful workloads change the handle as they run, so the traced
	// loop gets a fresh one.
	stateful bool
	// extraE2E names the end-to-end metrics this workload prints beside
	// the JSON line: p50_ms over all kinds (a median that falls wherever
	// the kinds' latency modes meet, so it is printed, not gated) and the
	// metrics only this workload has.
	extraE2E []string
}

var workloads = []*workload{
	{
		name: "point_uniform", n: 100_000, setups: 3,
		open: openSharded8,
		loop: func(b *bench, h *unn.Handle, tr *tracer) (*loopResult, error) {
			return syncLoop(b, h, tr, func(bool) []share { return queryMix })
		},
		warmMix:  queryMix,
		extraE2E: []string{"p50_ms", "p99_ms", "topk_p50_ms"},
	},
	{
		name: "batch_hot", n: 100_000, setups: 3,
		open:     openSharded8,
		loop:     batchLoop,
		warmMix:  queryMix,
		extraE2E: []string{"p50_ms", "topk_p50_ms"},
	},
	{
		name: "serve_churn", n: 100_000, setups: 9,
		prepare:  prepareSnapshot,
		open:     func(b *bench) (*unn.Handle, error) { return unn.OpenSnapshot(bytes.NewReader(b.snap)) },
		loop:     serveLoop,
		warmMix:  queryMix,
		stateful: true,
		extraE2E: []string{"p50_ms", "p99_ms", "topk_p50_ms", "mutate_p50_ms"},
	},
	{
		name: "mix_drift", n: 20_000, setups: 5,
		open: openDrift,
		loop: func(b *bench, h *unn.Handle, tr *tracer) (*loopResult, error) {
			return syncLoop(b, h, tr, func(post bool) []share {
				if post {
					return postDriftMix
				}
				return preDriftMix
			})
		},
		warmMix:  preDriftMix,
		stateful: true,
		extraE2E: []string{"p50_ms", "p99_ms", "post_drift_ops_per_s"},
	},
}

func workloadNames() []string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return s
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// bench holds one run's generated inputs.
type bench struct {
	cfg  config
	w    *workload
	n    int
	side float64
	pts  []*unn.Discrete
	// hot is serve_churn's fixed hot set of query points.
	hot []geom.Point
	// snap is serve_churn's snapshot, written before timing.
	snap []byte
	// t0 is the origin of span timestamps.
	t0 time.Time
}

// newBench generates the dataset: n discrete uncertain points with 3
// locations each (σ = 2) whose centres are uniform in a square of side
// 10·√n, so the density does not change with n.
func newBench(w *workload, cfg config) *bench {
	n := w.n
	if cfg.n > 0 {
		n = cfg.n
	}
	b := &bench{cfg: cfg, w: w, n: n, side: 10 * math.Sqrt(float64(n)), t0: time.Now()}
	b.pts = randomPoints(rand.New(rand.NewSource(cfg.seed)), n, b.side)
	return b
}

func randomPoints(rng *rand.Rand, n int, side float64) []*unn.Discrete {
	return constructions.RandomDiscrete(rng, n, 3, side, 2, 1)
}

// rng returns the request stream of one client (or of one purpose):
// distinct from the dataset's stream and from every other stream.
func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.cfg.seed*1_000_003 + 7919*(stream+1)))
}

func (b *bench) point(rng *rand.Rand) geom.Point {
	return geom.Pt(rng.Float64()*b.side, rng.Float64()*b.side)
}

func openSharded8(b *bench) (*unn.Handle, error) {
	return unn.OpenDiscrete(b.pts, unn.WithShards(8), unn.WithCache(4096, 0), unn.WithWorkers(1))
}

func openDrift(b *bench) (*unn.Handle, error) {
	return unn.OpenDiscrete(b.pts, unn.WithShards(4), unn.WithPlannerMix(0.25, 1, 0.01),
		unn.WithAdaptivePlanner(), unn.WithCalibration(b.cfg.calPath), unn.WithWorkers(1))
}

// prepareSnapshot builds the 8-shard serving handle once, draws the hot
// set, and snapshots the handle; serve_churn's set-up is the restore.
func prepareSnapshot(b *bench) error {
	h, err := unn.OpenDiscrete(b.pts, unn.WithShards(8), unn.WithCache(4096, 0),
		unn.WithInsertBuffer(64), unn.WithWorkers(1))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := h.Snapshot(&buf); err != nil {
		return err
	}
	b.snap = buf.Bytes()
	rng := b.rng(-1)
	b.hot = make([]geom.Point, 1024)
	for i := range b.hot {
		b.hot[i] = b.point(rng)
	}
	return nil
}

// warmUp makes single queries of the workload's first mix on fresh
// points, untimed, before a measured loop: lazily built structures and
// the adaptive planner's first observation windows are then in place
// when timing starts. It returns how long it ran and how many queries it
// made.
func warmUp(b *bench, h *unn.Handle) (time.Duration, int) {
	rng := b.rng(-3)
	d := min(time.Second, b.cfg.dur/4)
	start := time.Now()
	n := 0
	for ; time.Since(start) < d; n++ {
		var c check
		_ = ask(h, pickKind(rng.Float64(), b.w.warmMix), b.point(rng), &c) // the loop counts failures
	}
	return time.Since(start), n
}

// rec is one completed request: a query, a mutation, or (batch_hot) a
// batch call carrying size queries.
type rec struct {
	kind     kind
	start    time.Duration // since the loop began: hand-off
	lat      time.Duration // hand-off → answer
	admit    time.Duration // Serve: generator blocked on the hand-off
	accepted time.Duration // Serve: accepted → answer
	size     int
	err      bool
}

// check is one sampled answer kept for the oracle.
type check struct {
	kind kind
	q    geom.Point
	req  uint64
	// version is the number of mutations applied before the query ran
	// (serve_churn; 0 elsewhere).
	version int
	nonzero []int
	probs   []quantify.Prob
	expI    int
	expD    float64
}

// mutation is one applied insert (point set) or delete.
type mutation struct {
	insert *unn.Discrete
	del    int
	// wantN is the live count right after it; gotN is what the
	// answer reported, failed whether it carried an error.
	wantN, gotN int
	failed      bool
}

// loopResult is what one measured loop observed.
type loopResult struct {
	recs    []rec
	elapsed time.Duration
	queries int // completed queries (batch calls count their size)
	checks  []check
	muts    []mutation
	// batchSample is a sample of the loop's query points, duplicates
	// kept, replayed as one batch per kind by the traced run.
	batchSample []geom.Point
	// distinct / points: how many of the loop's query points were
	// distinct, an input property.
	distinct, points int
	// mix_drift: the flip time, what completed after it, and the
	// replan lag (-1: no replan after the flip).
	flip          time.Duration
	postQueries   int
	replanLag     int
	replansAtFlip uint64
	// serve_churn: time the generator held a request back to keep the
	// mutation order observable.
	orderWait time.Duration
	// rates are the request rates of the loop's slices (whole seconds,
	// or batch_hot's kind cycles), one list per phase of the loop
	// (mix_drift has two); see opsPerSec.
	rates  [][]float64
	spans  []span
	before counters
	after  counters
}

// checkCap bounds the sampled answers per kind and loop.
const checkCap = 8

// sampler picks the requests the oracle checks: every every-th request
// of a client, at most limit per kind. Each client has its own, so the
// sample depends only on the seed.
type sampler struct {
	count [numKinds]int
	every uint64
	limit int
}

func (s *sampler) want(k kind, seq uint64) bool {
	if seq%s.every != 0 || k == kMutate || s.count[k] >= s.limit {
		return false
	}
	s.count[k]++
	return true
}

// ask runs one query through h and fills the check's answer fields.
func ask(h *unn.Handle, k kind, q geom.Point, c *check) error {
	var err error
	switch k {
	case kNonzero:
		c.nonzero, err = h.QueryNonzero(q)
	case kExpected:
		c.expI, c.expD, err = h.QueryExpected(q)
	case kProbs:
		c.probs, err = h.QueryProbs(q, 0)
	case kTopK:
		c.probs, err = h.QueryTopK(q, topK, 0)
	}
	return err
}

func reqID(client, seq uint64) uint64 { return client<<40 | seq }

// syncLoop is one closed-loop client making one synchronous
// Handle.Query* call at a time on fresh uniform points. mix gives the
// kind shares before and after the half-time flip.
func syncLoop(b *bench, h *unn.Handle, tr *tracer, mix func(post bool) []share) (*loopResult, error) {
	res := &loopResult{replanLag: -1, recs: make([]rec, 0, 1<<14)}
	watch := b.w.name == "mix_drift"
	rng := b.rng(0)
	smp := sampler{every: 29, limit: checkCap}
	buf := tr.buffer()
	res.before = readCounters(h)
	start := time.Now()
	half := b.cfg.dur / 2
	flipped := false
	for seq := uint64(0); ; seq++ {
		now := time.Since(start)
		if now >= b.cfg.dur {
			break
		}
		post := now >= half
		if post && watch && !flipped {
			flipped = true
			res.replansAtFlip = h.Stats().Replans
		}
		q := b.point(rng)
		k := pickKind(rng.Float64(), mix(post))
		var ck check
		t := time.Now()
		err := ask(h, k, q, &ck)
		lat := time.Since(t)
		id := reqID(0, seq)
		buf.add("handle."+k.String(), t, t.Add(lat), id, 0, id)
		res.recs = append(res.recs, rec{kind: k, start: t.Sub(start), lat: lat, size: 1, err: err != nil})
		if err == nil && smp.want(k, seq) {
			ck.kind, ck.q, ck.req = k, q, id
			res.checks = append(res.checks, ck)
			res.batchSample = append(res.batchSample, q)
		}
		if post {
			res.postQueries++
			if watch && res.postQueries%8 == 0 && res.replanLag < 0 && h.Stats().Replans > res.replansAtFlip {
				res.replanLag = res.postQueries
			}
		}
	}
	res.elapsed = time.Since(start)
	res.after = readCounters(h)
	res.flip = half
	res.queries = len(res.recs)
	res.points, res.distinct = res.queries, res.queries
	if watch {
		res.rates = [][]float64{windowRates(res.recs, 0, half), windowRates(res.recs, half, res.elapsed)}
	} else {
		res.rates = [][]float64{windowRates(res.recs, 0, res.elapsed)}
	}
	res.spans = buf.spans
	return res, nil
}

// batchKinds is batch_hot's kind rotation: 4 NN≠0, 3 E[d], 2 π and one
// top-10 batch per cycle, the 40/30/20/10 mix.
var batchKinds = []kind{kNonzero, kExpected, kProbs, kNonzero, kExpected, kTopK, kNonzero, kExpected, kProbs, kNonzero}

const (
	batchSize     = 256
	batchDistinct = 32
)

// batchLoop is batch_hot: one client making Handle.Batch* calls of 256
// queries: 32 fresh points, each once, and 224 repeats of them drawn
// Zipf-skewed. It runs whole
// kind cycles, so every run weighs the kinds alike: it starts another
// cycle only if that one (as long as the last) ends within the run. Each
// cycle's query rate is one of the loop's rates.
func batchLoop(b *bench, h *unn.Handle, tr *tracer) (*loopResult, error) {
	res := &loopResult{replanLag: -1}
	rng := b.rng(0)
	buf := tr.buffer()
	res.before = readCounters(h)
	start := time.Now()
	var seq uint64
	var lastCycle time.Duration
	var rates []float64
	for cycle := 0; cycle == 0 || time.Since(start)+lastCycle <= b.cfg.dur; cycle++ {
		c0 := time.Now()
		q0 := res.queries
		for _, k := range batchKinds {
			base := make([]geom.Point, batchDistinct)
			for i := range base {
				base[i] = b.point(rng)
			}
			// Every base point appears once and the rest of the batch
			// repeats them Zipf-skewed, so every batch has exactly
			// batchDistinct distinct points: with a number drawn per
			// batch, the tiles it fills (distinct points ÷ lanes) would
			// differ by one from batch to batch, and so would its time.
			zipf := rand.NewZipf(rng, 1.1, 1, batchDistinct-1)
			qs := make([]geom.Point, batchSize)
			seen := make(map[geom.Point]bool, batchDistinct)
			for i := range qs {
				if i < batchDistinct {
					qs[i] = base[i]
				} else {
					qs[i] = base[zipf.Uint64()]
				}
				seen[qs[i]] = true
			}
			rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
			res.points += len(qs)
			res.distinct += len(seen)
			if res.batchSample == nil {
				res.batchSample = append([]geom.Point(nil), qs[:batchDistinct]...)
			}
			t := time.Now()
			cks, err := askBatch(h, k, qs)
			lat := time.Since(t)
			id := reqID(0, seq)
			buf.add("handle.batch."+k.String(), t, t.Add(lat), id, 0, id)
			seq++
			res.recs = append(res.recs, rec{kind: k, start: t.Sub(start), lat: lat, size: len(qs), err: err != nil})
			if err != nil {
				continue
			}
			res.queries += len(qs)
			for _, ck := range cks {
				if countKind(res.checks, k) < checkCap {
					ck.req = id
					res.checks = append(res.checks, ck)
				}
			}
		}
		lastCycle = time.Since(c0)
		rates = append(rates, ratio(float64(res.queries-q0), lastCycle.Seconds()))
	}
	res.elapsed = time.Since(start)
	res.after = readCounters(h)
	res.rates = [][]float64{rates}
	res.spans = buf.spans
	return res, nil
}

func countKind(cs []check, k kind) int {
	n := 0
	for _, c := range cs {
		if c.kind == k {
			n++
		}
	}
	return n
}

// askBatch runs one Batch* call and returns two of its answers (the
// first and the middle query) as checks.
func askBatch(h *unn.Handle, k kind, qs []geom.Point) ([]check, error) {
	picks := []int{0, len(qs) / 2}
	out := make([]check, len(picks))
	for j, i := range picks {
		out[j] = check{kind: k, q: qs[i]}
	}
	switch k {
	case kNonzero:
		ans, err := h.BatchNonzero(qs)
		if err != nil {
			return nil, err
		}
		for j, i := range picks {
			out[j].nonzero = ans[i]
		}
	case kExpected:
		ans, err := h.BatchExpected(qs)
		if err != nil {
			return nil, err
		}
		for j, i := range picks {
			out[j].expI, out[j].expD = ans[i].I, ans[i].Dist
		}
	case kProbs, kTopK:
		var ans [][]quantify.Prob
		var err error
		if k == kProbs {
			ans, err = h.BatchProbs(qs, 0)
		} else {
			ans, err = h.BatchTopK(qs, topK, 0)
		}
		if err != nil {
			return nil, err
		}
		for j, i := range picks {
			out[j].probs = ans[i]
		}
	}
	return out, nil
}

const (
	serveWindow = 32
	hotShare    = 0.7
	mutateShare = 0.1
	verifyEvery = 50
)

// pending is one Serve request between hand-off and answer.
type pending struct {
	kind                  kind
	q                     geom.Point
	start, accepted, done time.Duration
	verify                bool
	check                 check
	err                   bool
	n                     int
}

// serveLoop is serve_churn: one generator keeps serveWindow requests in
// flight on Handle.Serve and one receiver collects the answers. 10% of
// requests mutate (half inserts of fresh points, half deletes of live
// indices); 70% of reads repeat a point of the fixed hot set.
//
// Two rules keep every checked answer verifiable against a mirror of
// the dataset: at most one mutation is in flight, so mutations apply in
// the order they were sent; and a sampled read is sent only when no
// mutation is in flight, and no mutation is sent until it is answered,
// so it sees exactly the mutations sent before it.
func serveLoop(b *bench, h *unn.Handle, tr *tracer) (*loopResult, error) {
	res := &loopResult{replanLag: -1}
	rng := b.rng(0)
	buf := tr.buffer()
	in := make(chan unn.Query)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res.before = readCounters(h)
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		pend      = make([]pending, 0, 1<<15)
		mutFlight bool
		verFlight bool
		window    = make(chan struct{}, serveWindow)
		recvDone  = make(chan struct{})
		stray     int
	)
	start := time.Now()
	out := h.Serve(ctx, in)
	go func() {
		defer close(recvDone)
		for a := range out {
			now := time.Since(start)
			mu.Lock()
			if a.Seq >= uint64(len(pend)) {
				stray++
				mu.Unlock()
				<-window
				continue
			}
			p := &pend[a.Seq]
			p.done, p.err, p.n = now, a.Err != nil, a.N
			if p.verify {
				c := &p.check
				switch p.kind {
				case kNonzero:
					c.nonzero = a.Nonzero
				case kExpected:
					c.expI, c.expD = a.Expected.I, a.Expected.Dist
				case kProbs:
					c.probs = a.Probs
				case kTopK:
					c.probs = a.TopK
				}
				verFlight = false
			}
			if p.kind == kMutate {
				mutFlight = false
			}
			cond.Broadcast()
			mu.Unlock()
			<-window
		}
	}()
	live := b.n
	var reads uint64
	var verified [numKinds]int
	for seq := uint64(0); time.Since(start) < b.cfg.dur; seq++ {
		q := unn.Query{Seq: seq}
		p := pending{}
		if rng.Float64() < mutateShare {
			p.kind = kMutate
			m := mutation{}
			if rng.Intn(2) == 0 {
				m.insert = randomPoints(rng, 1, b.side)[0]
				q.Kind, q.Item = unn.OpInsert, unn.Item{Point: m.insert}
				live++
			} else {
				m.del = rng.Intn(live)
				q.Kind, q.Del = unn.OpDelete, m.del
				live--
			}
			m.wantN = live
			res.muts = append(res.muts, m)
		} else {
			p.kind = pickKind(rng.Float64(), queryMix)
			if rng.Float64() < hotShare {
				p.q = b.hot[rng.Intn(len(b.hot))]
			} else {
				p.q = b.point(rng)
			}
			q.Kind, q.Q = queryCap(p.kind), p.q
			if p.kind == kTopK {
				q.K = topK
			}
			reads++
			if reads%verifyEvery == 0 && verified[p.kind] < checkCap {
				verified[p.kind]++
				p.verify = true
				p.check = check{kind: p.kind, q: p.q, req: reqID(0, seq), version: len(res.muts)}
			}
		}
		window <- struct{}{}
		t := time.Now()
		mu.Lock()
		for mutFlight || (p.kind == kMutate && verFlight) {
			cond.Wait()
		}
		mutFlight = mutFlight || p.kind == kMutate
		verFlight = verFlight || p.verify
		res.orderWait += time.Since(t)
		p.start = time.Since(start)
		pend = append(pend, p)
		mu.Unlock()
		in <- q
		acc := time.Since(start)
		mu.Lock()
		pend[seq].accepted = acc
		mu.Unlock()
	}
	close(in)
	<-recvDone
	res.elapsed = time.Since(start)
	res.after = readCounters(h)
	if stray > 0 {
		return res, fmt.Errorf("serve: %d answers with unknown sequence numbers", stray)
	}
	seen := map[geom.Point]bool{}
	mi := 0
	for i, p := range pend {
		res.recs = append(res.recs, rec{kind: p.kind, start: p.start, lat: p.done - p.start,
			admit: p.accepted - p.start, accepted: p.done - p.accepted, size: 1, err: p.err})
		id := reqID(0, uint64(i))
		buf.add("serve."+p.kind.String(), start.Add(p.start), start.Add(p.done), id, 0, id)
		// The two phases are children of the request span; bits 39-40
		// of the id tell them apart.
		buf.add("serve.admit", start.Add(p.start), start.Add(p.accepted), id|1<<39, id, id)
		buf.add("serve.in_service", start.Add(p.accepted), start.Add(p.done), id|2<<39, id, id)
		res.queries++
		if p.kind == kMutate {
			res.muts[mi].gotN, res.muts[mi].failed = p.n, p.err
			mi++
			continue
		}
		res.points++
		seen[p.q] = true
		if p.verify && !p.err {
			res.checks = append(res.checks, p.check)
			res.batchSample = append(res.batchSample, p.q)
		}
	}
	res.distinct = len(seen)
	res.rates = [][]float64{windowRates(res.recs, 0, res.elapsed)}
	res.spans = buf.spans
	return res, nil
}

// rateWindow is the slice of a loop whose completed requests make one
// rate.
const rateWindow = time.Second

// windowRates returns the requests completed per second in each whole
// rateWindow between from and to (one rate over the whole span when it
// is shorter than a window).
func windowRates(recs []rec, from, to time.Duration) []float64 {
	n := int((to - from) / rateWindow)
	if n == 0 {
		done := 0
		for _, r := range recs {
			if end := r.start + r.lat; end >= from && end < to {
				done += r.size
			}
		}
		return []float64{ratio(float64(done), (to - from).Seconds())}
	}
	counts := make([]float64, n)
	for _, r := range recs {
		if end := r.start + r.lat; end >= from {
			if i := int((end - from) / rateWindow); i < n {
				counts[i] += float64(r.size)
			}
		}
	}
	for i := range counts {
		counts[i] /= rateWindow.Seconds()
	}
	return counts
}

func queryCap(k kind) unn.Capability {
	switch k {
	case kNonzero:
		return unn.QueryKindNonzero
	case kExpected:
		return unn.QueryKindExpected
	case kProbs:
		return unn.QueryKindProbs
	default:
		return unn.QueryKindTopK
	}
}

// installedPlans returns the per-shard backend assignments Explain
// reports for a planner handle ("nonzero=brute,probs=spiral,…").
func installedPlans(h *unn.Handle) []string {
	var out []string
	for _, line := range strings.Split(h.Explain(), "\n") {
		if _, after, ok := strings.Cut(line, "planned("); ok {
			plan, _, _ := strings.Cut(after, ")")
			out = append(out, plan)
		}
	}
	sort.Strings(out)
	return out
}
