package core

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync/atomic"

	"nepdvs/internal/trace"
)

// A pipe delivers a run's events to RunConfig.ExtraSink on a second
// goroutine, so trace writing and external checking overlap the
// simulation. The chip reuses its event and extras map across emissions,
// so the producer copies each event into a fixed batch — the event fields,
// plus its Extra pairs in flat arrays — and hands full batches to the one
// consumer, which rebuilds a reused Extra map per event and calls the sink
// in emission order. A fixed pool of batches bounds the memory in flight;
// it holds a few milliseconds of simulation (8192 events), so either
// goroutine can lose its CPU for an OS time slice without stalling the
// other.
const (
	pipeBatchLen = 512
	pipeBatches  = 16
)

// pipeBatch is one hand-off unit. nx[i] is the number of Extra pairs of
// evs[i], whose pairs follow those of the events before it in keys and
// vals; -1 marks a nil Extra map.
type pipeBatch struct {
	n    int
	evs  [pipeBatchLen]trace.Event
	nx   [pipeBatchLen]int32
	keys []string
	vals []float64
}

// newPipeBatch sizes the flat extras for one pair per event, the chip's
// common case, so steady-state batches do not grow them.
func newPipeBatch() *pipeBatch {
	return &pipeBatch{keys: make([]string, 0, pipeBatchLen), vals: make([]float64, 0, pipeBatchLen)}
}

type pipe struct {
	sink trace.Sink
	cur  *pipeBatch
	// full and free are sized to hold every batch, so neither side blocks
	// on a send: the producer waits only for a free batch, the consumer
	// only for a full one.
	full chan *pipeBatch
	free chan *pipeBatch
	done chan struct{}
	// err is the sink's first error (or recovered panic), written once by
	// the consumer before it sets failed; the producer reads it only after
	// observing failed, or after done is closed.
	err    error
	failed atomic.Bool
	closed bool
	// known caches, by length, the key set of the last Extra map of that
	// length, so the producer can copy a recurring key set by lookup
	// instead of iterating the map. Lengths 0–3 cover every map the chip
	// and the fault injector emit.
	known [4][]string
	// extra is the consumer's reused Extra map and extraKeys its key set.
	extra     map[string]float64
	extraKeys []string
}

// newPipe starts the consumer goroutine; close must be called to stop it.
func newPipe(sink trace.Sink) *pipe {
	p := &pipe{
		sink:  sink,
		cur:   newPipeBatch(),
		full:  make(chan *pipeBatch, pipeBatches),
		free:  make(chan *pipeBatch, pipeBatches),
		done:  make(chan struct{}),
		extra: make(map[string]float64),
	}
	for i := 1; i < pipeBatches; i++ {
		p.free <- newPipeBatch()
	}
	go p.consume()
	return p
}

// Emit implements trace.Sink on the simulation goroutine. A sink error
// surfaces at the next batch hand-off.
func (p *pipe) Emit(ev *trace.Event) error {
	b := p.cur
	i := b.n
	b.evs[i] = *ev
	b.evs[i].Extra = nil
	b.nx[i] = -1
	if ev.Extra != nil {
		b.nx[i] = int32(p.copyExtra(b, ev.Extra))
	}
	b.n = i + 1
	if b.n < pipeBatchLen {
		return nil
	}
	p.full <- b
	b = <-p.free
	b.n, b.keys, b.vals = 0, b.keys[:0], b.vals[:0]
	p.cur = b
	if p.failed.Load() {
		return p.err
	}
	return nil
}

// copyExtra appends x's pairs to the batch and returns their number. A map
// holding the cached key set of its length is read by lookup: equal length
// and every cached key present means equal key sets.
func (p *pipe) copyExtra(b *pipeBatch, x map[string]float64) int {
	n := len(x)
	if n < len(p.known) && len(p.known[n]) == n {
		start := len(b.vals)
		hit := true
		for _, k := range p.known[n] {
			v, ok := x[k]
			if !ok {
				hit = false
				break
			}
			b.vals = append(b.vals, v)
		}
		if hit {
			b.keys = append(b.keys, p.known[n]...)
			return n
		}
		b.vals = b.vals[:start]
	}
	start := len(b.keys)
	for k, v := range x {
		b.keys = append(b.keys, k)
		b.vals = append(b.vals, v)
	}
	if n < len(p.known) {
		p.known[n] = append(p.known[n][:0], b.keys[start:]...)
	}
	return n
}

// consume runs on the pipe's goroutine: it delivers each batch until the
// sink fails, then only recycles batches until the producer closes.
func (p *pipe) consume() {
	defer close(p.done)
	for b := range p.full {
		if p.err == nil {
			if p.err = p.deliver(b); p.err != nil {
				p.failed.Store(true)
			}
		}
		p.free <- b
	}
}

// deliver calls the sink on every event of b in order, turning a sink
// panic into a *RunError.
func (p *pipe) deliver(b *pipeBatch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{Panicked: true, Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
	}()
	j := 0
	for i := range b.n {
		ev := &b.evs[i]
		if n := int(b.nx[i]); n >= 0 {
			// Clearing a map costs more than overwriting it, so extra is
			// cleared only when the key set changes.
			keys := b.keys[j : j+n]
			if !slices.Equal(keys, p.extraKeys) {
				clear(p.extra)
				p.extraKeys = append(p.extraKeys[:0], keys...)
			}
			for k, key := range keys {
				p.extra[key] = b.vals[j+k]
			}
			j += n
			ev.Extra = p.extra
		}
		if err := p.sink.Emit(ev); err != nil {
			return err
		}
	}
	return nil
}

// close delivers the events still batched, waits for the consumer to
// finish, and returns the sink's first error. It is idempotent, so a
// deferred close also covers the error and panic paths.
func (p *pipe) close() error {
	if !p.closed {
		p.closed = true
		if p.cur.n > 0 {
			p.full <- p.cur
		}
		close(p.full)
		<-p.done
	}
	return p.err
}
