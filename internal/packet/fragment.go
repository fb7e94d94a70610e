package packet

import "fmt"

// Fragment splits a datagram into fragments whose IP payload fits mtu
// bytes (mtu counts the IP datagram size, header included). Fragment
// boundaries fall on 8-byte multiples, per IPv4 rules. A datagram that
// already fits is returned unchanged as a single element.
func Fragment(d *Datagram, mtu int) ([]*Datagram, error) {
	maxPayload := mtu - IPv4HeaderLen
	if maxPayload < 8 {
		return nil, fmt.Errorf("packet: mtu %d leaves no room for fragment payload", mtu)
	}
	if d.Header.DontFrag && len(d.Payload) > maxPayload {
		return nil, fmt.Errorf("packet: datagram needs fragmentation but DF is set")
	}
	if len(d.Payload) <= maxPayload {
		return []*Datagram{d}, nil
	}
	chunk := maxPayload - maxPayload%8
	var frags []*Datagram
	for off := 0; off < len(d.Payload); off += chunk {
		end := off + chunk
		more := true
		if end >= len(d.Payload) {
			end = len(d.Payload)
			more = false
		}
		h := d.Header
		h.MoreFrags = more
		h.FragOffset = off
		h.DontFrag = false
		h.TotalLen = IPv4HeaderLen + (end - off)
		frags = append(frags, &Datagram{Header: h, Payload: d.Payload[off:end]})
	}
	return frags, nil
}

// Reassembler rebuilds datagrams from fragments. It bounds both the
// number of concurrent reassemblies and the bytes buffered per datagram,
// so fragment floods exhaust a fixed budget rather than memory.
type Reassembler struct {
	limit    int
	maxBytes int
	pending  map[reasmKey]*reasmState
	order    []reasmKey // FIFO eviction

	completed uint64
	evicted   uint64
	oversize  uint64
}

type reasmKey struct {
	src, dst IP
	id       uint16
	proto    Protocol
}

type reasmState struct {
	frags   []*Datagram
	bytes   int
	gotLast bool
}

// NewReassembler creates a reassembler holding at most limit concurrent
// datagrams of up to maxBytes each (zeros choose 64 and 65535).
func NewReassembler(limit, maxBytes int) *Reassembler {
	if limit <= 0 {
		limit = 64
	}
	if maxBytes <= 0 {
		maxBytes = 65535
	}
	return &Reassembler{limit: limit, maxBytes: maxBytes, pending: make(map[reasmKey]*reasmState)}
}

// Stats reports completed reassemblies, evictions (older in-progress
// datagrams displaced by new ones), and oversize aborts.
func (r *Reassembler) Stats() (completed, evicted, oversize uint64) {
	return r.completed, r.evicted, r.oversize
}

// Pending returns the number of in-progress reassemblies.
func (r *Reassembler) Pending() int { return len(r.pending) }

// Add offers a fragment. When the fragment completes its datagram, the
// reassembled datagram is returned; otherwise nil. The reassembler keeps
// its own copy of the fragment, so d and its payload may alias a buffer
// the caller reuses.
func (r *Reassembler) Add(d *Datagram) *Datagram {
	key := reasmKey{src: d.Header.Src, dst: d.Header.Dst, id: d.Header.ID, proto: d.Header.Protocol}
	st := r.pending[key]
	if st == nil {
		if len(r.pending) >= r.limit {
			// Evict the oldest in-progress reassembly.
			oldest := r.order[0]
			r.order = r.order[1:]
			delete(r.pending, oldest)
			r.evicted++
		}
		st = &reasmState{}
		r.pending[key] = st
		r.order = append(r.order, key)
	}
	st.frags = append(st.frags, &Datagram{Header: d.Header, Payload: append([]byte(nil), d.Payload...)})
	st.bytes += len(d.Payload)
	if !d.Header.MoreFrags {
		st.gotLast = true
	}
	if st.bytes > r.maxBytes {
		r.oversize++
		r.drop(key)
		return nil
	}
	if !st.gotLast {
		return nil
	}
	whole := r.assemble(st)
	if whole == nil {
		return nil // holes remain
	}
	r.drop(key)
	r.completed++
	return whole
}

func (r *Reassembler) drop(key reasmKey) {
	delete(r.pending, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// assemble returns the reconstructed datagram if the fragments cover a
// contiguous range from offset zero through the final fragment.
func (r *Reassembler) assemble(st *reasmState) *Datagram {
	var total int
	for _, f := range st.frags {
		if !f.Header.MoreFrags {
			total = f.Header.FragOffset + len(f.Payload)
		}
	}
	if total == 0 {
		return nil
	}
	payload := make([]byte, total)
	covered := make([]bool, total)
	var first *Datagram
	for _, f := range st.frags {
		if f.Header.FragOffset == 0 {
			first = f
		}
		end := f.Header.FragOffset + len(f.Payload)
		if end > total {
			return nil // inconsistent lengths
		}
		copy(payload[f.Header.FragOffset:end], f.Payload)
		for i := f.Header.FragOffset; i < end; i++ {
			covered[i] = true
		}
	}
	if first == nil {
		return nil
	}
	for _, c := range covered {
		if !c {
			return nil
		}
	}
	h := first.Header
	h.MoreFrags = false
	h.FragOffset = 0
	h.TotalLen = IPv4HeaderLen + total
	return &Datagram{Header: h, Payload: payload}
}
