package main

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"wspeer/internal/engine"
	"wspeer/internal/resilience"
	"wspeer/internal/transport"
)

// numSegments is how many equal parts a measured pass is cut into; every
// timing and rate is the median of the per-segment values.
const numSegments = 5

// stallLimit is the latency beyond which an op counts as a stall.
const stallLimit = time.Second

// value is one reported number: the median of the per-segment values, the
// segment minimum and maximum beside it (the within-run spread), the
// number of samples behind it and, in result files, the segment values.
type value struct {
	Value float64   `json:"value"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	N     int       `json:"n"`
	Unit  string    `json:"unit,omitempty"`
	Segs  []float64 `json:"segs,omitempty"`
}

func fromSegments(vs []float64, n int) value {
	lo, hi := minMax(vs)
	return value{Value: median(vs), Min: lo, Max: hi, N: n, Segs: vs}
}

func single(v float64, n int) value { return value{Value: v, Min: v, Max: v, N: n} }

// passResult is what one measured pass produced.
type passResult struct {
	metrics   map[string]value
	attempted int
	failed    int
	executed  int // ops run, warm-up included
	firstErr  error
	stalls    int
	gcCycles  uint32
	gcPauseMs float64
	// open loop only
	open *openCounts
}

// openCounts separates what became of the calls an open loop offered.
type openCounts struct {
	Offered     int     `json:"offered"`
	Succeeded   int     `json:"succeeded"` // verified, within the limit
	Late        int     `json:"late"`      // verified, beyond the limit
	Shed        int     `json:"shed"`      // refused with HTTP 503
	SchedShed   int     `json:"sched_shed"`
	Failed      int     `json:"failed"`
	InflightMax int     `json:"inflight_max"`
	LagP99Us    float64 `json:"generator_lag_p99_us"`
	QueueMax    int     `json:"sched_queue_max"`
}

// segment accumulates one segment of a pass.
type segment struct {
	lats      []uint32 // ns, of the ops that count for latency
	attempted int
	good      int // ops that count for throughput
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// finishPass turns segments and the process samples at their edges into
// the end-to-end values.
func finishPass(res *passResult, segs []segment, samples []procSample) {
	var p50, p99, rate, cpu, allocs, bytes []float64
	total := 0
	for k := range segs {
		s := &segs[k]
		if s.attempted == 0 {
			continue
		}
		total += len(s.lats)
		dur := (samples[k+1].at - samples[k].at).Seconds()
		if len(s.lats) > 0 {
			slices.Sort(s.lats)
			p50 = append(p50, percentileNs(s.lats, 0.50)/1e3)
			p99 = append(p99, percentileNs(s.lats, 0.99)/1e3)
		}
		n := float64(s.attempted)
		rate = append(rate, float64(s.good)/dur)
		cpu = append(cpu, float64(samples[k+1].cpu-samples[k].cpu)/1e3/n)
		allocs = append(allocs, float64(samples[k+1].mallocs-samples[k].mallocs)/n)
		bytes = append(bytes, float64(samples[k+1].bytes-samples[k].bytes)/n)
	}
	res.metrics["op_p50_us"] = fromSegments(p50, total)
	res.metrics["op_p99_us"] = fromSegments(p99, total)
	res.metrics["ops_per_s"] = fromSegments(rate, res.attempted)
	res.metrics["cpu_us_per_op"] = fromSegments(cpu, res.attempted)
	res.metrics["allocs_per_op"] = fromSegments(allocs, res.attempted)
	res.metrics["alloc_bytes_per_op"] = fromSegments(bytes, res.attempted)
	first, last := samples[0], samples[len(samples)-1]
	res.gcCycles = last.gcs - first.gcs
	res.gcPauseMs = float64(last.gcPause-first.gcPause) / 1e6
}

// sampleEdges sleeps through an open-loop pass, sampling the process
// counters at the start of the first segment and the end of each.
func sampleEdges(base time.Time, warm, dur time.Duration) []procSample {
	samples := make([]procSample, 0, numSegments+1)
	for k := 0; k <= numSegments; k++ {
		time.Sleep(time.Until(base.Add(warm + dur*time.Duration(k)/numSegments)))
		samples = append(samples, readProc(base))
	}
	return samples
}

// runPass warms the rig up and measures it.
func runPass(r *rig, warm, dur time.Duration) (*passResult, error) {
	res := &passResult{metrics: make(map[string]value)}
	var err error
	if r.open != nil {
		err = runOpen(r, res, warm, dur)
	} else {
		err = runClosed(r, res, warm, dur)
	}
	return res, err
}

// maxCallerOps is the room for one closed-loop caller's latencies (off
// the heap, so only what is used is ever backed).
const maxCallerOps = 1 << 22

// runClosed drives a closed loop: every caller sends its next op when the
// previous one has been verified. A segment ends at the first op boundary
// past its nominal end, and the caller that crosses it samples the process
// counters there, so that the ops counted in a segment are the ops whose
// cost the samples enclose (with ops of 250 ms, an edge that cut through
// an op would misplace an eighth of a segment's cost).
func runClosed(r *rig, res *passResult, warm, dur time.Duration) error {
	type callerRec struct {
		lats     []uint32 // off-heap, length = capacity; n are used
		n        int
		ran      int
		segEnd   [numSegments]int // lats[:segEnd[k]] ended in segments ≤ k
		failed   [numSegments]int
		warmFail int
		stalls   int
		firstErr error
	}
	recs := make([]callerRec, r.callers)
	for i := range recs {
		lats, free, err := offHeap[uint32](maxCallerOps)
		if err != nil {
			return err
		}
		defer free()
		recs[i].lats = lats
	}
	samples := make([]procSample, numSegments+1)
	var current atomic.Int32 // -1 warming up, numSegments = stop
	current.Store(-1)
	ctx := context.Background()
	var wg sync.WaitGroup
	base := time.Now()
	// advance moves on from segment seg once its end has passed — by more
	// than one segment if the op that just ended outlasted several.
	advance := func(seg int) {
		elapsed := time.Since(base)
		if elapsed < warm {
			return
		}
		now := min(int((elapsed-warm)*numSegments/dur), numSegments)
		if now > seg && current.CompareAndSwap(int32(seg), int32(now)) {
			sample := readProc(base)
			for k := seg + 1; k <= now; k++ {
				samples[k] = sample
			}
		}
	}
	for id := range recs {
		wg.Add(1)
		go func(id int, rec *callerRec) {
			defer wg.Done()
			last := 0
			for i := 0; current.Load() < numSegments && rec.n < maxCallerOps; i++ {
				t0 := time.Now()
				err := r.op(ctx, id, i)
				lat := time.Since(t0)
				rec.ran++
				if err != nil && rec.firstErr == nil {
					rec.firstErr = err
				}
				seg := int(current.Load())
				if seg < 0 {
					if err != nil {
						rec.warmFail++
					}
					advance(seg)
					continue
				}
				if seg >= numSegments {
					seg = numSegments - 1 // another caller closed the pass meanwhile
				}
				for last < seg {
					rec.segEnd[last] = rec.n
					last++
				}
				rec.lats[rec.n] = clampNs(lat)
				rec.n++
				if err != nil {
					rec.failed[seg]++
				}
				if lat > stallLimit {
					rec.stalls++
				}
				advance(seg)
			}
			for ; last < numSegments; last++ {
				rec.segEnd[last] = rec.n
			}
		}(id, &recs[id])
	}
	wg.Wait()

	segs := make([]segment, numSegments)
	for i := range recs {
		rec := &recs[i]
		from := 0
		for k := 0; k < numSegments; k++ {
			part := rec.lats[from:rec.segEnd[k]]
			from = rec.segEnd[k]
			segs[k].lats = append(segs[k].lats, part...)
			segs[k].attempted += len(part)
			segs[k].good += len(part) - rec.failed[k]
			res.attempted += len(part)
			res.failed += rec.failed[k]
		}
		res.failed += rec.warmFail
		res.attempted += rec.warmFail
		res.stalls += rec.stalls
		res.executed += rec.ran
		if res.firstErr == nil {
			res.firstErr = rec.firstErr
		}
	}
	if current.Load() < numSegments {
		return fmt.Errorf("bench: more than %d ops per caller in one pass", maxCallerOps)
	}
	finishPass(res, segs, samples)
	return nil
}

// Outcomes of an open-loop call.
const (
	stPending uint8 = iota
	stOK
	stShed
	stSchedShed
	stFailed
)

func classify(in string, res *engine.Result, err error) uint8 {
	if err != nil {
		var se *transport.StatusError
		if errors.As(err, &se) && se.Code == 503 {
			return stShed // a well-formed refusal
		}
		if _, ok := resilience.AsOverload(err); ok {
			return stSchedShed // the client's own scheduler refused
		}
		return stFailed
	}
	if out, derr := res.String("return"); derr != nil || out != in {
		return stFailed
	}
	return stOK
}

// runOpen drives the open loop: one generator offers calls on a seeded
// schedule whatever the system does, and every call is timed from the
// moment it was due.
func runOpen(r *rig, res *passResult, warm, dur time.Duration) error {
	o := r.open
	total := warm + dur
	maxOps := int(total.Seconds()*overloadRate*(1+overloadJitter)) + 64
	type callRec struct {
		due, done int64
		status    uint8
	}
	recs, freeRecs, err := offHeap[callRec](maxOps)
	if err != nil {
		return err
	}
	lags, freeLags, err := offHeap[uint32](maxOps)
	if err != nil {
		return err
	}
	defer freeLags()
	var errMu sync.Mutex
	var firstErr error
	var samples []procSample
	var sampled sync.WaitGroup
	base := time.Now()
	sampled.Add(1)
	go func() {
		defer sampled.Done()
		samples = sampleEdges(base, warm, dur)
	}()

	var pending sync.WaitGroup
	queueMax := 0
	issue := func(i int) {
		in := o.inputs[i%len(o.inputs)].(string)
		ctx := context.Background()
		var op *opTrace
		var t0 int64
		if o.col != nil {
			op, ctx = o.col.begin(ctx)
			t0 = o.col.now()
			if op != nil {
				op.submit = t0
			}
			if q := o.client.Client().SchedulerStats().Queued; q > queueMax {
				queueMax = q
			}
		}
		pending.Add(1)
		o.inv.InvokeAsync(ctx, "echo", []engine.Param{engine.P("msg", in)}, func(result *engine.Result, err error) {
			rec := &recs[i]
			rec.done = int64(time.Since(base))
			rec.status = classify(in, result, err)
			if rec.status == stFailed {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
					if err == nil {
						firstErr = errWrongPayload
					}
				}
				errMu.Unlock()
			}
			if op != nil {
				if rec.status != stOK {
					op.mu.Lock()
					op.skip = true
					op.mu.Unlock()
				}
				op.add(kOp, t0, o.col.now())
			}
			pending.Done()
		})
	}
	n := 0
	for next := time.Duration(0); next < total && n < maxOps; {
		now := time.Since(base)
		if now < next {
			time.Sleep(next - now)
			now = time.Since(base)
		}
		// A generator that woke late offers everything that fell due.
		for next <= now && next < total && n < maxOps {
			recs[n].due = int64(next)
			lags[n] = clampNs(now - next)
			issue(n)
			next += o.gaps[n%len(o.gaps)]
			n++
		}
	}
	sampled.Wait()
	// Calls still pending long after the schedule ended never complete;
	// they stay stPending and count as failures below.
	drained := make(chan struct{})
	go func() { pending.Wait(); close(drained) }()
	select {
	case <-drained:
		defer freeRecs()
	case <-time.After(10 * time.Second):
		// recs stays mapped: a straggler may still write to it.
	}

	segs := make([]segment, numSegments)
	counts := &openCounts{QueueMax: queueMax, InflightMax: int(o.maxSeen.Load())}
	for i := 0; i < n; i++ {
		rec := &recs[i]
		due := time.Duration(rec.due)
		if due < warm {
			if rec.status == stFailed {
				res.failed++
				res.attempted++
			}
			continue
		}
		k := int((due - warm) * numSegments / dur)
		if k >= numSegments {
			k = numSegments - 1
		}
		s := &segs[k]
		s.attempted++
		counts.Offered++
		lat := time.Duration(rec.done - rec.due)
		switch rec.status {
		case stOK:
			s.lats = append(s.lats, clampNs(lat))
			if lat <= overloadLimit {
				s.good++
				counts.Succeeded++
			} else {
				counts.Late++
			}
			if lat > stallLimit {
				res.stalls++
			}
		case stShed:
			counts.Shed++
		case stSchedShed:
			counts.SchedShed++
		default: // failed, or still pending long after the schedule ended
			counts.Failed++
		}
	}
	errMu.Lock()
	res.firstErr = firstErr
	errMu.Unlock()
	if counts.Failed > 0 && res.firstErr == nil {
		res.firstErr = errors.New("bench: call never completed")
	}
	res.executed = n
	res.attempted += counts.Offered
	res.failed += counts.Failed
	if counts.InflightMax > overloadSlots {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("bench: %d handlers ran at once, admission allows %d", counts.InflightMax, overloadSlots)
		}
	}
	slices.Sort(lags[:n])
	counts.LagP99Us = percentileNs(lags[:n], 0.99) / 1e3
	res.open = counts
	finishPass(res, segs, samples)
	return nil
}
