package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"nepdvs/internal/loc/rt"
)

// Binary trace format. Long simulations emit tens of millions of events;
// the binary encoding is roughly 4× denser than text and parses an order of
// magnitude faster.
//
// Layout (little-endian):
//
//	magic   [4]byte  "NPT1"
//	records:
//	  nameID  uvarint      // index into the name table built on the fly
//	  (if nameID == 0)     // new name definition
//	    nlen  uvarint
//	    name  [nlen]byte   // then this record's nameID is the next index
//	  cycle    uvarint
//	  time     float64 bits (uint64 fixed)
//	  energy   float64 bits
//	  totalPkt uvarint
//	  totalBit uvarint
//	  nextra   uvarint
//	  extras:  (klen uvarint, key bytes, float64 bits) × nextra
//
// Name interning: the first occurrence of each event name is written inline
// with nameID 0; subsequent occurrences reference the table (1-based).
const binaryMagic = "NPT1"

// Limits on what one record may carry. The writer refuses, and the reader
// rejects, anything outside them.
const (
	maxNameLen  = 1 << 16
	maxExtras   = 1 << 10
	maxExtraKey = 1 << 12
)

// BinaryWriter streams events in the binary format.
type BinaryWriter struct {
	bw     *bufio.Writer
	names  map[string]uint64
	wrote  bool
	closed bool
	// buf and keys are per-record scratch, reused so a steady-state Emit
	// allocates nothing.
	buf  []byte
	keys []string
}

// NewBinaryWriter wraps w. Call Close when done.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{bw: bufio.NewWriterSize(w, 1<<16), names: make(map[string]uint64)}
}

// Emit implements Sink. The record is encoded whole into scratch and
// written at once; an event the reader would reject (see the limits above)
// is refused before anything is written.
func (b *BinaryWriter) Emit(ev *Event) error {
	if b.closed {
		return fmt.Errorf("trace: emit on closed BinaryWriter")
	}
	if len(ev.Extra) > maxExtras {
		return fmt.Errorf("trace: %d extra annotations on %q, limit %d", len(ev.Extra), ev.Name, maxExtras)
	}
	buf := b.buf[:0]
	if !b.wrote {
		buf = append(buf, binaryMagic...)
	}
	id, known := b.names[ev.Name]
	if known {
		buf = binary.AppendUvarint(buf, id)
	} else {
		if len(ev.Name) == 0 || len(ev.Name) > maxNameLen {
			return fmt.Errorf("trace: event name length %d outside 1..%d", len(ev.Name), maxNameLen)
		}
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(len(ev.Name)))
		buf = append(buf, ev.Name...)
	}
	buf = binary.AppendUvarint(buf, ev.Cycle)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Time))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Energy))
	buf = binary.AppendUvarint(buf, ev.TotalPkt)
	buf = binary.AppendUvarint(buf, ev.TotalBit)
	buf = binary.AppendUvarint(buf, uint64(len(ev.Extra)))
	b.keys = sortedKeys(b.keys, ev.Extra)
	for _, k := range b.keys {
		if len(k) == 0 || len(k) > maxExtraKey {
			return fmt.Errorf("trace: extra key length %d on %q outside 1..%d", len(k), ev.Name, maxExtraKey)
		}
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ev.Extra[k]))
	}
	b.buf = buf
	if _, err := b.bw.Write(buf); err != nil {
		return err
	}
	b.wrote = true
	if !known {
		// Intern only once the defining record is out, so a refused
		// record never leaves a name id the stream does not define.
		b.names[ev.Name] = uint64(len(b.names) + 1)
	}
	return nil
}

// Close flushes and marks the writer unusable.
func (b *BinaryWriter) Close() error {
	b.closed = true
	return b.bw.Flush()
}

// BinaryReader parses the binary trace format as a Source. Every error it
// reports carries the byte offset of the failure, so a corrupted
// multi-gigabyte trace file pinpoints its damage instead of just saying
// "truncated".
//
// Fixed-width fields and extra keys are decoded straight from the bufio
// buffer, keys are interned and one extras map is reused, so a
// steady-state Next allocates nothing.
type BinaryReader struct {
	br      *bufio.Reader
	names   []string
	keys    rt.Interner
	extra   map[string]float64 // reader-owned, handed out with each event
	started bool
	off     int64 // bytes consumed so far
	err     error
}

// next consumes the next n bytes and returns them in place: the slice is
// valid only until the following read. n must not exceed the buffer size,
// which bounds every field (maxNameLen). Like io.ReadFull, a short read
// consumes what there is and reports io.EOF when that was nothing and
// io.ErrUnexpectedEOF otherwise, so the offset stays exact.
func (b *BinaryReader) next(n int) ([]byte, error) {
	p, err := b.br.Peek(n)
	d, _ := b.br.Discard(len(p))
	b.off += int64(d)
	if err != nil {
		if err == io.EOF && len(p) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return p, nil
}

func (b *BinaryReader) f64() (float64, error) {
	p, err := b.next(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p)), nil
}

// uvarint decodes one varint byte-by-byte so the offset stays exact.
// atStart reports that not a single byte was consumed — the io.EOF there
// (and only there) is a clean record boundary; EOF mid-varint comes back as
// io.ErrUnexpectedEOF.
func (b *BinaryReader) uvarint() (v uint64, atStart bool, err error) {
	var shift uint
	for i := 0; ; i++ {
		c, err := b.br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, i == 0, err
		}
		b.off++
		if i == 9 && c > 1 {
			return 0, false, fmt.Errorf("trace: varint overflows 64 bits")
		}
		if c < 0x80 {
			return v | uint64(c)<<shift, false, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
}

// Next implements Source. A record the bufio buffer already holds whole is
// decoded in place by nextBuffered; the byte-exact path below reads every
// other record, and is the only one that builds an error.
func (b *BinaryReader) Next() (Event, bool, error) {
	if b.err != nil {
		return Event{}, false, b.err
	}
	clear(b.extra)
	if b.started {
		if ev, ok := b.nextBuffered(); ok {
			return ev, true, nil
		}
	}
	fail := func(err error) (Event, bool, error) {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("trace: truncated binary trace")
		}
		b.err = fmt.Errorf("%w at byte offset %d", err, b.off)
		return Event{}, false, b.err
	}
	// uv reads a mid-record varint: a clean EOF between fields is still a
	// truncated record.
	uv := func() (uint64, error) {
		v, _, err := b.uvarint()
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return v, err
	}
	if !b.started {
		magic, err := b.next(len(binaryMagic))
		if err != nil {
			if err == io.EOF {
				return Event{}, false, nil // empty trace
			}
			return fail(err)
		}
		if string(magic) != binaryMagic {
			return fail(fmt.Errorf("trace: bad magic %q, not a binary trace", magic))
		}
		b.started = true
	}
	nameID, atStart, err := b.uvarint()
	if err == io.EOF && atStart {
		return Event{}, false, nil // clean end of stream
	}
	if err != nil {
		return fail(err)
	}
	var ev Event
	if nameID == 0 {
		nlen, err := uv()
		if err != nil {
			return fail(err)
		}
		if nlen == 0 || nlen > maxNameLen {
			return fail(fmt.Errorf("trace: implausible name length %d", nlen))
		}
		name, err := b.next(int(nlen))
		if err != nil {
			return fail(err)
		}
		ev.Name = string(name)
		b.names = append(b.names, ev.Name)
	} else {
		if nameID > uint64(len(b.names)) {
			return fail(fmt.Errorf("trace: name id %d out of range (table has %d)", nameID, len(b.names)))
		}
		ev.Name = b.names[nameID-1]
	}
	if ev.Cycle, err = uv(); err != nil {
		return fail(err)
	}
	if ev.Time, err = b.f64(); err != nil {
		return fail(err)
	}
	if ev.Energy, err = b.f64(); err != nil {
		return fail(err)
	}
	if ev.TotalPkt, err = uv(); err != nil {
		return fail(err)
	}
	if ev.TotalBit, err = uv(); err != nil {
		return fail(err)
	}
	nextra, err := uv()
	if err != nil {
		return fail(err)
	}
	if nextra > maxExtras {
		return fail(fmt.Errorf("trace: implausible extra count %d", nextra))
	}
	if nextra > 0 {
		ev.Extra = b.extraMap()
	}
	for i := uint64(0); i < nextra; i++ {
		klen, err := uv()
		if err != nil {
			return fail(err)
		}
		if klen == 0 || klen > maxExtraKey {
			return fail(fmt.Errorf("trace: implausible extra key length %d", klen))
		}
		key, err := b.next(int(klen))
		if err != nil {
			return fail(err)
		}
		k := b.keys.Intern(key)
		v, err := b.f64()
		if err != nil {
			return fail(err)
		}
		b.extra[k] = v
	}
	return ev, true, nil
}

// extraMap returns the reader-owned extras map, made on first use.
func (b *BinaryReader) extraMap() map[string]float64 {
	if b.extra == nil {
		b.extra = make(map[string]float64, 2)
	}
	return b.extra
}

// nextBuffered decodes the next record from the bytes the bufio buffer
// already holds, and consumes it. It looks only at buffered bytes, because
// a Peek past them would read, and bufio hands a read error to that one
// Peek and then forgets it. ok is false, with nothing consumed and the
// extras map empty, when the record is not wholly buffered, defines
// a name, or holds anything the byte-exact path must report: Next then
// reads it there from the same offset.
func (b *BinaryReader) nextBuffered() (ev Event, ok bool) {
	p, _ := b.br.Peek(b.br.Buffered())
	i := 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(p[i:])
		i += max(n, 0)
		return v, n > 0
	}
	f64 := func() (float64, bool) {
		if len(p)-i < 8 {
			return 0, false
		}
		i += 8
		return math.Float64frombits(binary.LittleEndian.Uint64(p[i-8:])), true
	}
	nameID, ok := uv()
	if !ok || nameID == 0 || nameID > uint64(len(b.names)) {
		return Event{}, false
	}
	ev.Name = b.names[nameID-1]
	var nextra uint64
	if ev.Cycle, ok = uv(); !ok {
		return Event{}, false
	}
	if ev.Time, ok = f64(); !ok {
		return Event{}, false
	}
	if ev.Energy, ok = f64(); !ok {
		return Event{}, false
	}
	if ev.TotalPkt, ok = uv(); !ok {
		return Event{}, false
	}
	if ev.TotalBit, ok = uv(); !ok {
		return Event{}, false
	}
	if nextra, ok = uv(); !ok || nextra > maxExtras {
		return Event{}, false
	}
	if nextra > 0 {
		ev.Extra = b.extraMap()
	}
	for k := uint64(0); k < nextra; k++ {
		klen, ok := uv()
		if !ok || klen == 0 || klen > maxExtraKey || uint64(len(p)-i) < klen+8 {
			clear(b.extra)
			return Event{}, false
		}
		key := b.keys.Intern(p[i : i+int(klen)])
		i += int(klen)
		v, _ := f64()
		b.extra[key] = v
	}
	b.br.Discard(i)
	b.off += int64(i)
	return ev, true
}

// OpenSource sniffs the first bytes of r and returns a text or binary reader
// accordingly.
func OpenSource(r io.Reader) (Source, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(4)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if string(head) == binaryMagic {
		return &BinaryReader{br: br}, nil
	}
	return NewTextReader(br), nil
}
