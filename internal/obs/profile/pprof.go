// Hand-rolled pprof profile.proto encoding and decoding, stdlib only.
//
// The pprof wire format is a gzipped protobuf message. We need only a
// small, fixed subset of the schema, so rather than depend on a proto
// compiler the encoder writes tag/varint/length-delimited records
// directly and the decoder is a generic varint walker. Field numbers
// (from github.com/google/pprof/proto/profile.proto):
//
//	Profile:  sample_type=1 sample=2 mapping=3 location=4 function=5
//	          string_table=6 time_nanos=9 duration_nanos=10
//	          period_type=11 period=12 comment=13 default_sample_type=14
//	ValueType: type=1 unit=2           (string-table indices)
//	Sample:    location_id=1 value=2   (both packed repeated)
//	Mapping:   id=1 has_functions=7
//	Location:  id=1 mapping_id=2 line=4
//	Line:      function_id=1 line=2
//	Function:  id=1 name=2 system_name=3 filename=4
//
// Every frame name becomes one Function + one Location (ids are
// assigned in first-appearance order, so encoding is deterministic);
// sample location_ids are leaf-first per the pprof convention, while
// Data stacks are root-first.
package profile

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
)

// protobuf wire types.
const (
	wireVarint = 0
	wireBytes  = 2
)

type protoBuf struct{ buf []byte }

func (b *protoBuf) varint(v uint64) {
	for v >= 0x80 {
		b.buf = append(b.buf, byte(v)|0x80)
		v >>= 7
	}
	b.buf = append(b.buf, byte(v))
}

func (b *protoBuf) tag(field, wire int) { b.varint(uint64(field)<<3 | uint64(wire)) }

// int64Field emits a varint field; zero values are skipped per proto3.
func (b *protoBuf) int64Field(field int, v int64) {
	if v == 0 {
		return
	}
	b.tag(field, wireVarint)
	b.varint(uint64(v))
}

func (b *protoBuf) bytesField(field int, p []byte) {
	b.tag(field, wireBytes)
	b.varint(uint64(len(p)))
	b.buf = append(b.buf, p...)
}

func (b *protoBuf) stringField(field int, s string) {
	b.tag(field, wireBytes)
	b.varint(uint64(len(s)))
	b.buf = append(b.buf, s...)
}

// packedInt64s emits a packed repeated varint field.
func (b *protoBuf) packedInt64s(field int, vs []int64) {
	if len(vs) == 0 {
		return
	}
	var inner protoBuf
	for _, v := range vs {
		inner.varint(uint64(v))
	}
	b.bytesField(field, inner.buf)
}

// stringTable interns strings into pprof's string_table, where index
// 0 must be the empty string.
type stringTable struct {
	byVal map[string]int64
	vals  []string
}

func newStringTable() *stringTable {
	return &stringTable{byVal: map[string]int64{"": 0}, vals: []string{""}}
}

func (st *stringTable) index(s string) int64 {
	if i, ok := st.byVal[s]; ok {
		return i
	}
	i := int64(len(st.vals))
	st.byVal[s] = i
	st.vals = append(st.vals, s)
	return i
}

// WritePprof writes the profile as a gzipped pprof profile.proto.
func (d *Data) WritePprof(w io.Writer) error {
	st := newStringTable()
	var out protoBuf

	for _, vt := range d.SampleTypes {
		var m protoBuf
		m.int64Field(1, st.index(vt.Type))
		m.int64Field(2, st.index(vt.Unit))
		out.bytesField(1, m.buf)
	}

	// Assign function/location ids (1-based, shared per frame name)
	// in first-appearance order.
	frameID := make(map[string]int64)
	var frames []string
	id := func(frame string) int64 {
		if fid, ok := frameID[frame]; ok {
			return fid
		}
		fid := int64(len(frames) + 1)
		frameID[frame] = fid
		frames = append(frames, frame)
		return fid
	}

	for _, s := range d.Samples {
		var m protoBuf
		locs := make([]int64, 0, len(s.Stack))
		for i := len(s.Stack) - 1; i >= 0; i-- { // leaf-first
			locs = append(locs, id(s.Stack[i]))
		}
		m.packedInt64s(1, locs)
		m.packedInt64s(2, s.Values)
		out.bytesField(2, m.buf)
	}

	// One synthetic mapping so pprof tools treat locations as symbolized.
	{
		var m protoBuf
		m.int64Field(1, 1)
		m.int64Field(7, 1) // has_functions
		out.bytesField(3, m.buf)
	}

	for i, frame := range frames {
		fid := int64(i + 1)
		var loc protoBuf
		loc.int64Field(1, fid)
		loc.int64Field(2, 1) // mapping_id
		var line protoBuf
		line.int64Field(1, fid)
		loc.bytesField(4, line.buf)
		out.bytesField(4, loc.buf)

		var fn protoBuf
		fn.int64Field(1, fid)
		fn.int64Field(2, st.index(frame))
		fn.int64Field(3, st.index(frame))
		fn.int64Field(4, st.index("(virtual)"))
		out.bytesField(5, fn.buf)
	}

	var tail protoBuf
	if d.PeriodType != (ValueType{}) {
		var m protoBuf
		m.int64Field(1, st.index(d.PeriodType.Type))
		m.int64Field(2, st.index(d.PeriodType.Unit))
		tail.bytesField(11, m.buf)
	}
	tail.int64Field(12, d.Period)
	for _, c := range d.Comments {
		// A repeated field keeps its zeros: index 0 is an empty comment.
		tail.tag(13, wireVarint)
		tail.varint(uint64(st.index(c)))
	}
	tail.int64Field(14, st.index(d.DefaultType))

	// string_table entries must precede nothing in particular (proto
	// fields are order-free), but emitting them after all interning is
	// complete is what makes the single-pass encoder work.
	for _, s := range st.vals {
		out.stringField(6, s)
	}
	out.buf = append(out.buf, tail.buf...)

	gz := gzip.NewWriter(w)
	if _, err := gz.Write(out.buf); err != nil {
		return err
	}
	return gz.Close()
}

// --- decoding ---

type protoReader struct {
	buf []byte
	pos int
}

func (r *protoReader) done() bool { return r.pos >= len(r.buf) }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.pos >= len(r.buf) {
			return 0, io.ErrUnexpectedEOF
		}
		b := r.buf[r.pos]
		r.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("profile: varint overflow")
}

// field reads the next field, returning its number and either a
// varint value or a bytes payload depending on the wire type.
func (r *protoReader) field() (num int, wire int, v uint64, p []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case wireVarint:
		v, err = r.varint()
	case 1: // fixed64
		if r.pos+8 > len(r.buf) {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.pos += 8
	case wireBytes:
		var n uint64
		n, err = r.varint()
		if err == nil {
			// Compare in uint64: a huge length must not wrap negative
			// as an int and slip past the bound.
			if n > uint64(len(r.buf)-r.pos) {
				return 0, 0, 0, nil, io.ErrUnexpectedEOF
			}
			p = r.buf[r.pos : r.pos+int(n)]
			r.pos += int(n)
		}
	case 5: // fixed32
		if r.pos+4 > len(r.buf) {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		r.pos += 4
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, v, p, err
}

// ints64 parses a repeated int64 field that may be packed or not.
func ints64(wire int, v uint64, p []byte, into []int64) ([]int64, error) {
	if wire == wireVarint {
		return append(into, int64(v)), nil
	}
	r := &protoReader{buf: p}
	for !r.done() {
		u, err := r.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, int64(u))
	}
	return into, nil
}

// ReadPprof parses a pprof profile.proto stream (gzipped or raw) back
// into a Data. Only the fields WritePprof emits are interpreted;
// anything else is skipped, so profiles from other tools load too as
// long as they are symbolized.
func ReadPprof(r io.Reader) (*Data, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		gz, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(gz); err != nil {
			return nil, err
		}
		if err := gz.Close(); err != nil {
			return nil, err
		}
	}

	var (
		strs        []string
		sampleTypes []struct{ typ, unit int64 }
		periodType  struct{ typ, unit int64 }
		period      int64
		comments    []int64
		defType     int64
		// location id → function id; function id → name string index.
		locFn  = map[int64]int64{}
		fnName = map[int64]int64{}
		raws   []struct {
			locs []int64
			vals []int64
		}
	)

	pr := &protoReader{buf: raw}
	for !pr.done() {
		num, wire, v, p, err := pr.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			var vt struct{ typ, unit int64 }
			ir := &protoReader{buf: p}
			for !ir.done() {
				n, _, iv, _, err := ir.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					vt.typ = int64(iv)
				case 2:
					vt.unit = int64(iv)
				}
			}
			sampleTypes = append(sampleTypes, vt)
		case 2: // sample
			var s struct {
				locs []int64
				vals []int64
			}
			ir := &protoReader{buf: p}
			for !ir.done() {
				n, w, iv, ip, err := ir.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = ints64(w, iv, ip, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if s.vals, err = ints64(w, iv, ip, s.vals); err != nil {
						return nil, err
					}
				}
			}
			raws = append(raws, s)
		case 4: // location
			var id, fid int64
			ir := &protoReader{buf: p}
			for !ir.done() {
				n, _, iv, ip, err := ir.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = int64(iv)
				case 4: // line
					lr := &protoReader{buf: ip}
					for !lr.done() {
						ln, _, lv, _, err := lr.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fid = int64(lv)
						}
					}
				}
			}
			locFn[id] = fid
		case 5: // function
			var id, name int64
			ir := &protoReader{buf: p}
			for !ir.done() {
				n, _, iv, _, err := ir.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = int64(iv)
				case 2:
					name = int64(iv)
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(p))
		case 11: // period_type
			ir := &protoReader{buf: p}
			for !ir.done() {
				n, _, iv, _, err := ir.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					periodType.typ = int64(iv)
				case 2:
					periodType.unit = int64(iv)
				}
			}
		case 12:
			period = int64(v)
		case 13:
			comments = append(comments, int64(v))
		case 14:
			defType = int64(v)
		default:
			_ = wire // skipped field
		}
	}

	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}

	types := make([]ValueType, len(sampleTypes))
	for i, vt := range sampleTypes {
		types[i] = ValueType{Type: str(vt.typ), Unit: str(vt.unit)}
	}
	d := NewData(types, str(defType))
	d.Period = period
	d.PeriodType = ValueType{Type: str(periodType.typ), Unit: str(periodType.unit)}
	for _, c := range comments {
		d.Comments = append(d.Comments, str(c))
	}
	if len(raws) > 0 && len(types) == 0 {
		// Every Data method weighs a sample by one of its values.
		return nil, fmt.Errorf("profile: %d samples but no sample types", len(raws))
	}
	for _, s := range raws {
		if len(s.vals) != len(types) {
			return nil, fmt.Errorf("profile: sample has %d values, want %d", len(s.vals), len(types))
		}
		stack := make([]string, 0, len(s.locs))
		for i := len(s.locs) - 1; i >= 0; i-- { // back to root-first
			stack = append(stack, str(fnName[locFn[s.locs[i]]]))
		}
		d.Add(stack, s.vals...)
	}
	return d, nil
}
