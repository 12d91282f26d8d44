package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"unn"
)

// pinnedPlan is the per-shard backend assignment mix_drift's calibration
// table installs; a run that installs another one is flagged.
const pinnedPlan = "nonzero=brute,probs=spiral,expected=brute,topk=spiral"

// runWorkload is one run: inputs, set-up, the measured loop (split in an
// untraced and a traced half when traced), the oracle, and the metrics.
func runWorkload(w *workload, cfg config) (*result, error) {
	b := newBench(w, cfg)
	res := &result{workload: w.name, cfg: cfg, n: b.n}
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
	}

	var h *unn.Handle
	var setups []float64
	for i := 0; i < w.setups; i++ {
		h = nil
		runtime.GC()
		t := time.Now()
		hh, err := w.open(b)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		h = hh
		res.notePlan(w, h)
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	if cfg.trace {
		// The traced run measures two loops, untraced then traced, of
		// half the length each.
		b.cfg.dur /= 2
	}
	res.warm(b, h)
	u, err := w.loop(b, h, nil)
	if err != nil {
		return nil, err
	}
	res.account(b, u)
	if w.name == "mix_drift" {
		res.notes = append(res.notes, fmt.Sprintf("loop: %d replans (%d before the flip), first after %d post-flip queries; plan after: %s",
			u.after.stats.Replans-u.before.stats.Replans, u.replansAtFlip-u.before.stats.Replans, u.replanLag,
			strings.Join(installedPlans(h), " | ")))
	}
	if !cfg.trace {
		res.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d", len(setups)))
		res.add("heap_mb", float64(mem.HeapAlloc)/1e6, "MB", "live heap after set-up and a forced GC")
		res.endToEnd(w, u)
		return res, nil
	}

	// The traced run: the same loop again with spans, on a fresh handle
	// when the first loop changed it, then the layer replay.
	if w.stateful {
		h = nil
		runtime.GC()
		if h, err = w.open(b); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.notePlan(w, h)
	}
	res.warm(b, h)
	tr := &tracer{on: true, t0: b.t0}
	t, err := w.loop(b, h, tr)
	if err != nil {
		return nil, err
	}
	res.account(b, t)
	l := &layerRun{b: b, buf: tr.buffer(), vals: map[string]float64{}}
	l.loopLayers(t, u)
	if err := l.replay(h, t); err != nil {
		return nil, err
	}
	uo, to := opsPerSec(u), opsPerSec(t)
	up, tp := quantile(latencies(u.recs, -1), 0.5), quantile(latencies(t.recs, -1), 0.5)
	l.vals["trace.overhead_ops_pct"] = 100 * ratio(uo-to, uo)
	l.vals["trace.overhead_p50_ms"] = tp - up
	spans := append(t.spans, l.buf.spans...)
	l.vals["trace.spans"] = float64(len(spans))
	for _, m := range perLayer {
		res.add(m.name, l.vals[m.name], m.unit, "")
	}
	res.extra = append(res.extra, l.extra...)
	res.layerExtras(w, t)
	res.notes = append(res.notes,
		fmt.Sprintf("tracing overhead: untraced %.6g ops/s, p50 %.6g ms; traced %.6g ops/s, p50 %.6g ms",
			uo, up, to, tp))
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return res, nil
}

// notePlan records mix_drift's installed per-shard backends and flags a
// plan other than the pinned one (at the workload's own n).
func (r *result) notePlan(w *workload, h *unn.Handle) {
	if w.name != "mix_drift" {
		return
	}
	plans := installedPlans(h)
	r.notes = append(r.notes, "installed plan: "+strings.Join(plans, " | "))
	if r.n != w.n {
		return // the pinned plan is the one for the workload's own n
	}
	for _, p := range plans {
		if p != pinnedPlan {
			r.notes = append(r.notes, "FLAG: initial plan differs from the pinned "+pinnedPlan)
			return
		}
	}
	if len(plans) == 0 {
		r.notes = append(r.notes, "FLAG: no planned shards in Explain")
	}
}

func (r *result) warm(b *bench, h *unn.Handle) {
	d, n := warmUp(b, h)
	r.notes = append(r.notes, fmt.Sprintf("warm-up: %d queries in %.3f s before the measured loop", n, d.Seconds()))
}

// account adds one loop's requests and the oracle's verdict on its
// sampled answers.
func (r *result) account(b *bench, lr *loopResult) {
	for _, rc := range lr.recs {
		r.attempted += rc.size
		if rc.err {
			r.errors += rc.size
		}
	}
	r.wrong = append(r.wrong, verify(b, lr)...)
	r.notes = append(r.notes, fmt.Sprintf("oracle checked %d sampled answers and %d mutation results", len(lr.checks), len(lr.muts)))
}

// opsPerSec is the mean over the loop's phases of each phase's median
// slice rate: a stall of the host in a few slices does not move it, and
// phases of equal length weigh alike, as in queries ÷ elapsed.
func opsPerSec(lr *loopResult) float64 {
	sum := 0.0
	for _, rs := range lr.rates {
		sum += median(rs)
	}
	return ratio(sum, float64(len(lr.rates)))
}

// sliceCount counts the loop's rate slices.
func sliceCount(lr *loopResult) int {
	n := 0
	for _, rs := range lr.rates {
		n += len(rs)
	}
	return n
}

// latencies returns the latencies in ms of the loop's requests of kind k
// (every request when k < 0).
func latencies(recs []rec, k kind) []float64 {
	var xs []float64
	for _, r := range recs {
		if k < 0 || r.kind == k {
			xs = append(xs, ms(r.lat))
		}
	}
	return xs
}

// endToEnd adds the end-to-end metrics of the untraced loop.
func (r *result) endToEnd(w *workload, lr *loopResult) {
	all := latencies(lr.recs, -1)
	r.add("ops_per_s", opsPerSec(lr), "1/s", fmt.Sprintf("median rate of %d slices; %d queries in %.3f s", sliceCount(lr), lr.queries, lr.elapsed.Seconds()))
	for _, k := range []kind{kNonzero, kExpected, kProbs} {
		xs := latencies(lr.recs, k)
		r.add(k.String()+"_p50_ms", median(xs), "ms", fmt.Sprintf("%d requests", len(xs)))
	}
	for _, name := range w.extraE2E {
		switch name {
		case "p50_ms":
			r.addExtra(name, quantile(all, 0.5), "ms", fmt.Sprintf("%d requests", len(all)))
		case "p99_ms":
			// Reported where at least 10 requests lie beyond it.
			if beyond := len(all) - int(0.99*float64(len(all))+0.5); beyond >= 10 {
				r.addExtra(name, quantile(all, 0.99), "ms", fmt.Sprintf("%d requests, %d beyond", len(all), beyond))
			}
		case "topk_p50_ms":
			xs := latencies(lr.recs, kTopK)
			r.addExtra(name, median(xs), "ms", fmt.Sprintf("%d requests", len(xs)))
		case "mutate_p50_ms":
			xs := latencies(lr.recs, kMutate)
			r.addExtra(name, median(xs), "ms", fmt.Sprintf("%d mutations", len(xs)))
		case "post_drift_ops_per_s":
			post := lr.elapsed - lr.flip
			r.addExtra(name, ratio(float64(lr.postQueries), post.Seconds()), "1/s",
				fmt.Sprintf("%d queries in the %.3f s after the flip", lr.postQueries, post.Seconds()))
		}
	}
}

// layerExtras adds the layer metrics only this workload has.
func (r *result) layerExtras(w *workload, lr *loopResult) {
	switch w.name {
	case "serve_churn":
		var admit, service []float64
		for _, rc := range lr.recs {
			admit = append(admit, ms(rc.admit))
			service = append(service, ms(rc.accepted))
		}
		sum := 0.0
		for _, a := range admit {
			sum += a
		}
		r.addExtra("serve.admit_wait_ms", ratio(sum, float64(len(admit))), "ms", "mean time the generator blocked on the hand-off")
		r.addExtra("serve.in_service_ms", median(service), "ms", "median accepted → answer")
		r.addExtra("serve.order_wait_ms", ratio(ms(lr.orderWait), float64(len(lr.recs))), "ms",
			"mean time a request was held back to keep the mutation order observable")
	case "mix_drift":
		r.addExtra("adaptive.replan_lag_queries", float64(lr.replanLag), "count",
			"queries after the flip until Stats().Replans rose (-1: never; granularity 8)")
	}
}
