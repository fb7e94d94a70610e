package conntrack

import (
	"math/rand"
	"testing"
	"time"

	"barbican/internal/fw"
	"barbican/internal/packet"
)

var (
	ipC = packet.MustIP("10.0.0.1") // client / initiator
	ipS = packet.MustIP("10.0.0.2") // server / responder
)

func tcpPkt(src, dst packet.IP, sport, dport uint16, flags packet.TCPFlags) packet.Summary {
	return packet.Summary{
		Proto: packet.ProtoTCP, Src: src, Dst: dst,
		SrcPort: sport, DstPort: dport, HasPorts: true,
		Flags: flags, IPLen: 40,
	}
}

func udpPkt(src, dst packet.IP, sport, dport uint16) packet.Summary {
	return packet.Summary{
		Proto: packet.ProtoUDP, Src: src, Dst: dst,
		SrcPort: sport, DstPort: dport, HasPorts: true, IPLen: 36,
	}
}

func icmpPkt(src, dst packet.IP) packet.Summary {
	return packet.Summary{Proto: packet.ProtoICMP, Src: src, Dst: dst, IPLen: 28}
}

// step classifies one packet and commits it if the allow-all stateful
// policy would admit it (anything but INVALID), mirroring the NIC's
// two-phase classify/commit contract.
func step(t *testing.T, tab *Table, s packet.Summary, now time.Duration) fw.ConnState {
	t.Helper()
	cs := tab.Classify(s, now)
	if cs != fw.StateInvalid {
		tab.Commit(s, now)
	}
	return cs
}

func TestConntrackHandshakeLifecycle(t *testing.T) {
	tab := New(Config{Cap: 8, Seed: 1})
	now := time.Second
	syn := tcpPkt(ipC, ipS, 40000, 80, packet.FlagSYN)
	synack := tcpPkt(ipS, ipC, 80, 40000, packet.FlagSYN|packet.FlagACK)
	ack := tcpPkt(ipC, ipS, 40000, 80, packet.FlagACK)

	if cs := step(t, tab, syn, now); cs != fw.StateNew {
		t.Fatalf("SYN classified %v, want new", cs)
	}
	if cs := step(t, tab, synack, now); cs != fw.StateEstablished {
		t.Fatalf("SYN/ACK classified %v, want established", cs)
	}
	if cs := step(t, tab, ack, now); cs != fw.StateEstablished {
		t.Fatalf("handshake ACK classified %v, want established", cs)
	}
	info, ok := tab.Peek(ack, now)
	if !ok || info.TCP != TCPEstablished || !info.Assured {
		t.Fatalf("after handshake: info=%+v ok=%v, want established+assured", info, ok)
	}

	// Data flows both ways while established.
	data := tcpPkt(ipC, ipS, 40000, 80, packet.FlagACK|packet.FlagPSH)
	echo := tcpPkt(ipS, ipC, 80, 40000, packet.FlagACK|packet.FlagPSH)
	for i := 0; i < 3; i++ {
		now += 100 * time.Millisecond
		if cs := step(t, tab, data, now); cs != fw.StateEstablished {
			t.Fatalf("data classified %v", cs)
		}
		if cs := step(t, tab, echo, now); cs != fw.StateEstablished {
			t.Fatalf("echo classified %v", cs)
		}
	}

	// RST teardown: the entry closes; later data on the tuple is
	// INVALID, but a fresh SYN reuses it as a new connection.
	rst := tcpPkt(ipC, ipS, 40000, 80, packet.FlagRST)
	if cs := step(t, tab, rst, now); cs != fw.StateEstablished {
		t.Fatalf("RST classified %v (still part of the tracked flow)", cs)
	}
	if info, _ := tab.Peek(rst, now); info.TCP != TCPClosed {
		t.Fatalf("after RST: state %v, want closed", info.TCP)
	}
	if cs := step(t, tab, data, now); cs != fw.StateInvalid {
		t.Fatalf("post-RST data classified %v, want invalid", cs)
	}
	if cs := step(t, tab, syn, now); cs != fw.StateNew {
		t.Fatalf("post-RST SYN classified %v, want new (tuple reuse)", cs)
	}
}

func TestConntrackSimultaneousOpen(t *testing.T) {
	tab := New(Config{Cap: 8, Seed: 1})
	now := time.Second
	// Both sides SYN (crossed), then both SYN/ACK: RFC 793 simultaneous
	// open. No packet of the exchange may classify INVALID.
	seq := []packet.Summary{
		tcpPkt(ipC, ipS, 5000, 5001, packet.FlagSYN),
		tcpPkt(ipS, ipC, 5001, 5000, packet.FlagSYN),
		tcpPkt(ipC, ipS, 5000, 5001, packet.FlagSYN|packet.FlagACK),
		tcpPkt(ipS, ipC, 5001, 5000, packet.FlagSYN|packet.FlagACK),
		tcpPkt(ipC, ipS, 5000, 5001, packet.FlagACK|packet.FlagPSH),
	}
	for i, s := range seq {
		if cs := step(t, tab, s, now); cs == fw.StateInvalid {
			t.Fatalf("simultaneous-open packet %d classified invalid", i)
		}
	}
	if info, _ := tab.Peek(seq[4], now); info.TCP != TCPEstablished {
		t.Fatalf("after simultaneous open: %v, want established", info.TCP)
	}
}

func TestConntrackBareACKInvalid(t *testing.T) {
	tab := New(Config{Cap: 8, Seed: 1})
	ack := tcpPkt(ipC, ipS, 40000, 80, packet.FlagACK)
	if cs := tab.Classify(ack, time.Second); cs != fw.StateInvalid {
		t.Fatalf("bare ACK classified %v, want invalid", cs)
	}
	// Commit on a mid-stream packet must not create state either (the
	// fail-open NIC commits whatever it admits).
	if st := tab.Commit(ack, time.Second); st != CommitExisting {
		t.Fatalf("bare-ACK commit = %v, want existing (no-op)", st)
	}
	if tab.Len() != 0 {
		t.Fatalf("bare ACK created state: len=%d", tab.Len())
	}
}

func TestConntrackUDPPseudoState(t *testing.T) {
	tab := New(Config{Cap: 8, Seed: 1})
	now := time.Second
	q := udpPkt(ipC, ipS, 5353, 53)
	r := udpPkt(ipS, ipC, 53, 5353)
	if cs := step(t, tab, q, now); cs != fw.StateNew {
		t.Fatalf("UDP query classified %v", cs)
	}
	if cs := step(t, tab, r, now); cs != fw.StateEstablished {
		t.Fatalf("UDP reply classified %v, want established", cs)
	}
	if cs := step(t, tab, q, now); cs != fw.StateEstablished {
		t.Fatalf("replied UDP flow classified %v, want established", cs)
	}
	// Idle past the replied timeout, the flow starts over.
	later := now + timeoutUDPReplied + time.Second
	if cs := step(t, tab, q, later); cs != fw.StateNew {
		t.Fatalf("expired UDP flow classified %v, want new", cs)
	}
}

func TestConntrackICMPRelated(t *testing.T) {
	tab := New(Config{Cap: 8, Seed: 1})
	now := time.Second
	// With a TCP connection tracked between the peers, ICMP between the
	// same addresses classifies Related (errors about the connection).
	step(t, tab, tcpPkt(ipC, ipS, 40000, 80, packet.FlagSYN), now)
	if cs := tab.Classify(icmpPkt(ipS, ipC), now); cs != fw.StateRelated {
		t.Fatalf("ICMP beside tracked TCP classified %v, want related", cs)
	}
	// Without any tracked pair it is just a new ICMP flow.
	other := packet.MustIP("10.0.0.9")
	if cs := tab.Classify(icmpPkt(other, ipS), now); cs != fw.StateNew {
		t.Fatalf("lone ICMP classified %v, want new", cs)
	}
}

func TestConntrackLooseWindowPickup(t *testing.T) {
	tab := New(Config{Cap: 8, Seed: 1})
	now := time.Second
	ack := tcpPkt(ipC, ipS, 40000, 80, packet.FlagACK|packet.FlagPSH)
	if cs := tab.Classify(ack, now); cs != fw.StateInvalid {
		t.Fatalf("pre-window mid-stream packet classified %v", cs)
	}
	tab.EnterLooseWindow(now + time.Second)
	if cs := step(t, tab, ack, now); cs != fw.StateNew {
		t.Fatalf("in-window mid-stream packet classified %v, want new", cs)
	}
	// The adopted entry is established and assured immediately.
	if info, ok := tab.Peek(ack, now); !ok || info.TCP != TCPEstablished || !info.Assured {
		t.Fatalf("adopted entry: %+v ok=%v", info, ok)
	}
	// After the window closes, untracked mid-stream packets are
	// INVALID again.
	late := tcpPkt(ipC, ipS, 41000, 80, packet.FlagACK)
	if cs := tab.Classify(late, now+2*time.Second); cs != fw.StateInvalid {
		t.Fatalf("post-window mid-stream packet classified %v", cs)
	}
}

func TestConntrackEvictionPolicies(t *testing.T) {
	now := time.Second
	fill := func(tab *Table, n int) {
		for i := 0; i < n; i++ {
			s := tcpPkt(packet.IP{198, 18, 0, byte(i + 1)}, ipS, 1000, 80, packet.FlagSYN)
			step(t, tab, s, now)
			now += time.Millisecond
		}
	}
	assure := func(tab *Table, src packet.IP) packet.Summary {
		syn := tcpPkt(src, ipS, 2000, 80, packet.FlagSYN)
		step(t, tab, syn, now)
		step(t, tab, tcpPkt(ipS, src, 80, 2000, packet.FlagSYN|packet.FlagACK), now)
		step(t, tab, tcpPkt(src, ipS, 2000, 80, packet.FlagACK), now)
		return syn
	}

	t.Run("lru", func(t *testing.T) {
		tab := New(Config{Cap: 4, Policy: EvictLRU, Seed: 1})
		fill(tab, 4)
		if st := tab.Commit(tcpPkt(packet.IP{198, 19, 0, 1}, ipS, 1000, 80, packet.FlagSYN), now); st != CommitEvicted {
			t.Fatalf("full-table commit = %v, want evicted", st)
		}
		// The oldest embryonic entry (first filled) is the victim.
		gone := tcpPkt(packet.IP{198, 18, 0, 1}, ipS, 1000, 80, packet.FlagACK)
		if cs := tab.Classify(gone, now); cs != fw.StateInvalid {
			t.Fatalf("evicted flow classified %v, want invalid", cs)
		}
	})
	t.Run("syn-drop", func(t *testing.T) {
		tab := New(Config{Cap: 4, Policy: EvictSYNDrop, Seed: 1})
		session := assure(tab, ipC)
		fill(tab, 3)
		// Table full: 1 assured + 3 embryonic. New SYNs evict only
		// embryonic entries; the assured session is untouchable.
		for i := 0; i < 100; i++ {
			s := tcpPkt(packet.IP{198, 19, byte(i >> 8), byte(i)}, ipS, 1000, 80, packet.FlagSYN)
			if st := tab.Commit(s, now); st != CommitEvicted {
				t.Fatalf("flood commit %d = %v, want evicted", i, st)
			}
		}
		if cs := tab.Classify(tcpPkt(ipC, ipS, 2000, 80, packet.FlagACK), now); cs != fw.StateEstablished {
			t.Fatalf("assured session classified %v after flood, want established", cs)
		}
		_ = session
	})
	t.Run("syn-drop-full", func(t *testing.T) {
		tab := New(Config{Cap: 2, Policy: EvictSYNDrop, Seed: 1})
		assure(tab, ipC)
		assure(tab, packet.MustIP("10.0.0.3"))
		// Every entry assured: nothing evictable — the caller's fail
		// posture decides.
		if st := tab.Commit(tcpPkt(packet.IP{198, 19, 0, 1}, ipS, 1000, 80, packet.FlagSYN), now); st != CommitFull {
			t.Fatalf("all-assured commit = %v, want full", st)
		}
	})
	t.Run("random", func(t *testing.T) {
		tab := New(Config{Cap: 4, Policy: EvictRandom, Seed: 42})
		fill(tab, 4)
		for i := 0; i < 8; i++ {
			s := tcpPkt(packet.IP{198, 19, 0, byte(i + 1)}, ipS, 1000, 80, packet.FlagSYN)
			if st := tab.Commit(s, now); st != CommitEvicted {
				t.Fatalf("commit = %v, want evicted", st)
			}
		}
		if tab.Len() != 4 {
			t.Fatalf("len = %d, want 4", tab.Len())
		}
	})
}

// TestConntrackChurnAllocatesNothing holds the SYN-flood write path to
// zero allocations after New: filling a table and then churning it —
// every classify-and-commit of a fresh SYN evicting one entry and
// inserting another — allocates nothing under any policy. Each
// measured call churns a table built before measuring, so the fill is
// measured too.
func TestConntrackChurnAllocatesNothing(t *testing.T) {
	const capacity = 64
	for _, policy := range []EvictPolicy{EvictLRU, EvictRandom, EvictSYNDrop} {
		t.Run(policy.String(), func(t *testing.T) {
			const runs = 4
			var tables [runs + 1]*Table // AllocsPerRun calls once more to warm up
			for i := range tables {
				tables[i] = New(Config{Cap: capacity, Policy: policy, Seed: 1})
			}
			calls := 0
			churn := func() {
				tab := tables[calls]
				calls++
				now := time.Second
				for n := 1; n <= 8*capacity; n++ {
					s := tcpPkt(packet.IP{198, 18, byte(n >> 8), byte(n)}, ipS, uint16(n), 80, packet.FlagSYN)
					tab.Classify(s, now)
					want := CommitEvicted
					if n <= capacity {
						want = CommitCreated
					}
					if st := tab.Commit(s, now); st != want {
						t.Fatalf("commit %d = %v, want %v", n, st, want)
					}
				}
				if st := tab.Stats(); tab.Len() != capacity || st.Evicted != 7*capacity {
					t.Fatalf("len %d, %d evicted; want %d and %d", tab.Len(), st.Evicted, capacity, 7*capacity)
				}
			}
			if a := testing.AllocsPerRun(runs, churn); a != 0 {
				t.Errorf("%v allocs per fill-and-churn, want 0", a)
			}
		})
	}
}

func TestConntrackFlush(t *testing.T) {
	tab := New(Config{Cap: 8, Seed: 1})
	for i := 0; i < 5; i++ {
		step(t, tab, tcpPkt(packet.IP{198, 18, 0, byte(i + 1)}, ipS, 1000, 80, packet.FlagSYN), time.Second)
	}
	tab.Flush()
	if tab.Len() != 0 {
		t.Fatalf("len after flush = %d", tab.Len())
	}
	if tab.Stats().Flushes != 1 {
		t.Fatalf("flushes = %d", tab.Stats().Flushes)
	}
	// The table keeps working after a flush.
	if cs := tab.Classify(tcpPkt(ipC, ipS, 1, 2, packet.FlagSYN), time.Second); cs != fw.StateNew {
		t.Fatalf("post-flush SYN classified %v", cs)
	}
}

// traceEvent is one packet of a generated connection script with its
// expected classification.
type traceEvent struct {
	s    packet.Summary
	want fw.ConnState
	// anyTracked accepts either new or established (used where the
	// exact state depends on handshake progress, e.g. retransmits
	// during simultaneous open).
	anyTracked bool
}

// genScript builds one correct TCP exchange with seeded perturbations:
// retransmitted SYN, duplicated data segments, out-of-order data, RST
// vs FIN teardown, simultaneous open. Every emitted packet carries the
// classification a correct tracker must produce.
func genScript(r *rand.Rand, client, server packet.IP, sport, dport uint16) []traceEvent {
	var ev []traceEvent
	c2s := func(flags packet.TCPFlags) packet.Summary { return tcpPkt(client, server, sport, dport, flags) }
	s2c := func(flags packet.TCPFlags) packet.Summary { return tcpPkt(server, client, dport, sport, flags) }

	if r.Intn(8) == 0 {
		// Simultaneous open: crossed SYNs, then SYN/ACKs.
		ev = append(ev,
			traceEvent{s: c2s(packet.FlagSYN), want: fw.StateNew},
			traceEvent{s: s2c(packet.FlagSYN), want: fw.StateEstablished},
			traceEvent{s: c2s(packet.FlagSYN | packet.FlagACK), want: fw.StateEstablished},
			traceEvent{s: s2c(packet.FlagSYN | packet.FlagACK), want: fw.StateEstablished},
		)
	} else {
		ev = append(ev, traceEvent{s: c2s(packet.FlagSYN), want: fw.StateNew})
		if r.Intn(4) == 0 {
			// Retransmitted initial SYN: still the opener.
			ev = append(ev, traceEvent{s: c2s(packet.FlagSYN), want: fw.StateNew})
		}
		ev = append(ev,
			traceEvent{s: s2c(packet.FlagSYN | packet.FlagACK), want: fw.StateEstablished},
			traceEvent{s: c2s(packet.FlagACK), want: fw.StateEstablished},
		)
	}

	// Data phase: every segment (including duplicates and reorderings)
	// classifies established.
	n := 1 + r.Intn(6)
	var data []packet.Summary
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			data = append(data, c2s(packet.FlagACK|packet.FlagPSH))
		} else {
			data = append(data, s2c(packet.FlagACK|packet.FlagPSH))
		}
		if r.Intn(4) == 0 {
			data = append(data, data[len(data)-1]) // retransmit
		}
	}
	r.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] }) // out of order
	for _, d := range data {
		ev = append(ev, traceEvent{s: d, want: fw.StateEstablished})
	}

	if r.Intn(2) == 0 {
		// RST teardown: abrupt close, then the tuple is dead to
		// non-SYN traffic.
		ev = append(ev,
			traceEvent{s: c2s(packet.FlagRST), want: fw.StateEstablished},
			traceEvent{s: c2s(packet.FlagACK), want: fw.StateInvalid},
			traceEvent{s: s2c(packet.FlagACK | packet.FlagPSH), want: fw.StateInvalid},
		)
	} else {
		// FIN teardown both ways stays part of the tracked flow.
		ev = append(ev,
			traceEvent{s: c2s(packet.FlagFIN | packet.FlagACK), want: fw.StateEstablished},
			traceEvent{s: s2c(packet.FlagFIN | packet.FlagACK), want: fw.StateEstablished},
			traceEvent{s: c2s(packet.FlagACK), want: fw.StateEstablished},
		)
	}
	return ev
}

// TestConntrackTraceProperty: over an allow-all stateful policy, the
// tracker admits exactly what a correct TCP exchange implies — no
// packet of a well-formed trace (with retransmits, reordering,
// simultaneous open, either teardown) classifies INVALID except after
// an RST, and unsolicited mid-stream packets on foreign tuples always
// do. Connections interleave arbitrarily; the table is big enough that
// eviction never interferes.
func TestConntrackTraceProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		tab := New(Config{Cap: 256, Seed: seed})
		now := time.Second

		// A pool of concurrent connection scripts, interleaved by
		// seeded choice: cross-connection reordering is the norm.
		type script struct {
			ev  []traceEvent
			pos int
		}
		var scripts []*script
		for i := 0; i < 8; i++ {
			client := packet.IP{10, 0, byte(i + 1), 1}
			scripts = append(scripts, &script{
				ev: genScript(r, client, ipS, uint16(30000+i), 80),
			})
		}
		live := len(scripts)
		for live > 0 {
			sc := scripts[r.Intn(len(scripts))]
			if sc.pos >= len(sc.ev) {
				continue
			}
			e := sc.ev[sc.pos]
			sc.pos++
			if sc.pos == len(sc.ev) {
				live--
			}
			now += time.Duration(r.Intn(5)) * time.Millisecond
			cs := step(t, tab, e.s, now)
			if e.anyTracked {
				if cs != fw.StateNew && cs != fw.StateEstablished {
					t.Fatalf("seed %d: %v classified %v, want tracked", seed, e.s, cs)
				}
				continue
			}
			if cs != e.want {
				t.Fatalf("seed %d: %v classified %v, want %v", seed, e.s, cs, e.want)
			}
		}

		// Unsolicited mid-stream packets on tuples no script used must
		// classify INVALID and leave no state behind.
		before := tab.Len()
		for i := 0; i < 20; i++ {
			s := tcpPkt(packet.IP{192, 0, 2, byte(i + 1)}, ipS, uint16(r.Intn(60000)+1), 80,
				packet.FlagACK)
			if cs := tab.Classify(s, now); cs != fw.StateInvalid {
				t.Fatalf("seed %d: foreign ACK classified %v", seed, cs)
			}
			tab.Commit(s, now)
		}
		if tab.Len() != before {
			t.Fatalf("seed %d: foreign ACKs grew the table %d -> %d", seed, before, tab.Len())
		}
	}
}

// TestConntrackTableBoundStress hammers a tiny table with a seeded mix
// of packet shapes and checks the hard bound and bookkeeping
// invariants hold throughout. Safe under -race -shuffle=on: the table
// is purely local state.
func TestConntrackTableBoundStress(t *testing.T) {
	for _, policy := range []EvictPolicy{EvictLRU, EvictRandom, EvictSYNDrop} {
		t.Run(policy.String(), func(t *testing.T) {
			tab := New(Config{Cap: 64, Policy: policy, Seed: 99})
			r := rand.New(rand.NewSource(7))
			now := time.Second
			flagChoices := []packet.TCPFlags{
				packet.FlagSYN,
				packet.FlagSYN | packet.FlagACK,
				packet.FlagACK,
				packet.FlagACK | packet.FlagPSH,
				packet.FlagFIN | packet.FlagACK,
				packet.FlagRST,
			}
			for i := 0; i < 20000; i++ {
				now += time.Duration(r.Intn(2000)) * time.Microsecond
				var s packet.Summary
				switch r.Intn(10) {
				case 0:
					s = udpPkt(packet.IP{10, 1, byte(r.Intn(4)), byte(r.Intn(64))}, ipS,
						uint16(r.Intn(1024)+1), 53)
				case 1:
					s = icmpPkt(packet.IP{10, 1, 0, byte(r.Intn(64))}, ipS)
				default:
					s = tcpPkt(packet.IP{10, 1, byte(r.Intn(4)), byte(r.Intn(64))}, ipS,
						uint16(r.Intn(512)+1), 80, flagChoices[r.Intn(len(flagChoices))])
				}
				cs := tab.Classify(s, now)
				if cs != fw.StateInvalid {
					tab.Commit(s, now)
				}
				if tab.Len() > tab.Cap() {
					t.Fatalf("iteration %d: len %d exceeds cap %d", i, tab.Len(), tab.Cap())
				}
			}
			st := tab.Stats()
			if st.Created == 0 || st.Lookups == 0 {
				t.Fatalf("stress ran without activity: %+v", st)
			}
			if policy != EvictSYNDrop && st.Evicted == 0 {
				t.Fatalf("%v stress never evicted: %+v", policy, st)
			}
			tab.Flush()
			if tab.Len() != 0 {
				t.Fatalf("flush left %d entries", tab.Len())
			}
		})
	}
}

func TestTCPStateStrings(t *testing.T) {
	for s := TCPNone; s < NumTCPStates; s++ {
		if s.String() == "" {
			t.Errorf("TCPState %d has no name", int(s))
		}
	}
}
