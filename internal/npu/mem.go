package npu

import (
	"nepdvs/internal/sim"
	"nepdvs/internal/span"
)

// memRequest is one outstanding memory reference.
type memRequest struct {
	addr  int64
	words int64
	write bool
	done  func() // invoked at completion time
}

// memController is a FCFS queueing model shared by the SRAM and SDRAM
// units. Requests arrive at issue time, wait for the (single) command
// pipeline, and occupy it for a service time computed by the timing
// closure; banked row-state effects are folded into the service time.
type memController struct {
	k       *sim.Kernel
	name    string
	busyTil sim.Time
	queue   fifo[memRequest]
	active  bool
	// cur is the request in service, which completes at curEnd. Service
	// is one request at a time, so one completion handler, bound once,
	// serves every request.
	cur        memRequest
	curEnd     sim.Time
	completeFn sim.Handler
	// service computes the occupancy of a request given the current time.
	service func(r memRequest) sim.Time
	// spans, when non-nil, receives one service-occupancy span per request
	// on the controller's track (set via Chip.SetSpans).
	spans *span.Recorder

	// statistics
	requests  uint64
	words     uint64
	waitTotal sim.Time
	maxQueue  int
}

func newMemController(k *sim.Kernel, name string, service func(memRequest) sim.Time) *memController {
	mc := &memController{k: k, name: name, service: service}
	mc.completeFn = mc.complete
	return mc
}

// request enqueues a reference; done fires at completion.
func (mc *memController) request(r memRequest) {
	mc.requests++
	mc.words += uint64(r.words)
	mc.queue.push(r)
	if mc.queue.len() > mc.maxQueue {
		mc.maxQueue = mc.queue.len()
	}
	if !mc.active {
		mc.active = true
		mc.serveNext(mc.k.Now())
	}
}

func (mc *memController) serveNext(from sim.Time) {
	if mc.queue.len() == 0 {
		mc.active = false
		return
	}
	r := mc.queue.pop()
	start := from
	if mc.busyTil > start {
		start = mc.busyTil
	}
	mc.waitTotal += start - from
	occ := mc.service(r)
	end := start + occ
	mc.busyTil = end
	if mc.spans != nil {
		// Service is FCFS with non-overlapping windows, so these spans
		// tile cleanly; back-to-back same-kind transactions merge into one
		// busy stretch.
		name := "read"
		if r.write {
			name = "write"
		}
		mc.spans.Span(mc.name, name, "mem", start, end, nil)
	}
	mc.cur, mc.curEnd = r, end
	mc.k.Schedule(end, mc.completeFn)
}

// complete finishes the request in service and starts the next one.
func (mc *memController) complete() {
	mc.cur.done()
	mc.serveNext(mc.curEnd)
}

// Stats for tests and reports.
func (mc *memController) stats() (requests, words uint64, maxQueue int) {
	return mc.requests, mc.words, mc.maxQueue
}

// sdramTiming carries the banked row-state model: a request to a bank whose
// open row differs pays the activate/precharge penalty.
type sdramTiming struct {
	banks   int
	rowNs   float64
	wordNs  float64
	lastRow []int64
	hits    uint64
	misses  uint64
}

func newSdramTiming(banks int, rowNs, wordNs float64) *sdramTiming {
	t := &sdramTiming{banks: banks, rowNs: rowNs, wordNs: wordNs, lastRow: make([]int64, banks)}
	for i := range t.lastRow {
		t.lastRow[i] = -1
	}
	return t
}

func (t *sdramTiming) serviceTime(r memRequest) sim.Time {
	bank := int(uint64(r.addr>>3) % uint64(t.banks))
	row := r.addr >> 10
	var ns float64
	if t.lastRow[bank] != row {
		t.misses++
		t.lastRow[bank] = row
		ns += t.rowNs
	} else {
		t.hits++
	}
	ns += float64(r.words) * t.wordNs
	if ns < t.wordNs {
		ns = t.wordNs
	}
	return sim.Time(ns * float64(sim.Nanosecond))
}
