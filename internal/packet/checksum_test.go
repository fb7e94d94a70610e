package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refSumWords is the byte-pair RFC 1071 loop sumWords replaced: one
// 16-bit big-endian word per iteration, an odd trailing byte padded
// with zero. It is the reference the word-wide sum is held to.
func refSumWords(sum uint32, data []byte) uint32 {
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	return sum
}

func refChecksum(data []byte) uint16 { return finishChecksum(refSumWords(0, data)) }

func refTransportChecksum(src, dst IP, proto Protocol, segment []byte) uint16 {
	sum := refSumWords(0, src[:])
	sum = refSumWords(sum, dst[:])
	sum += uint32(proto)
	sum += uint32(len(segment))
	return finishChecksum(refSumWords(sum, segment))
}

// checkAgainstReference reports the first disagreement between the
// word-wide and byte-pair sums on data: Checksum, TransportChecksum and
// sumWords from seed. seed stays below 2^31 so the reference's uint32
// accumulator cannot wrap on inputs up to 64 KB.
func checkAgainstReference(t *testing.T, data []byte, src, dst IP, proto Protocol, seed uint32) {
	t.Helper()
	if got, want := Checksum(data), refChecksum(data); got != want {
		t.Fatalf("Checksum(len %d) = %#04x, reference %#04x", len(data), got, want)
	}
	if got, want := TransportChecksum(src, dst, proto, data), refTransportChecksum(src, dst, proto, data); got != want {
		t.Fatalf("TransportChecksum(%v, %v, %d, len %d) = %#04x, reference %#04x", src, dst, proto, len(data), got, want)
	}
	if got, want := finishChecksum(sumWords(seed, data)), finishChecksum(refSumWords(seed, data)); got != want {
		t.Fatalf("sum from seed %#x over len %d = %#04x, reference %#04x", seed, len(data), got, want)
	}
}

// TestChecksumMatchesReference holds the word-wide sum to the byte-pair
// loop on every length from 0 to 2,048 (random, all-zero and all-0xFF
// contents) and on testing/quick's random buffers, addresses and seeds.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	ones := IP{255, 255, 255, 255}
	for n := 0; n <= 2048; n++ {
		random := make([]byte, n)
		rng.Read(random)
		checkAgainstReference(t, random, IP{10, 0, 0, 1}, IP{10, 0, 0, 2}, ProtoTCP, rng.Uint32()>>1)
		checkAgainstReference(t, make([]byte, n), IP{}, IP{}, ProtoUDP, 0)
		checkAgainstReference(t, bytes.Repeat([]byte{0xff}, n), ones, ones, ProtoTCP, 1<<31-1)
	}

	// Word sums whose first 64→32-bit fold carries into bit 32 again.
	for _, data := range [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x01},
		append(bytes.Repeat([]byte{0xff}, 1024), 0x00, 0x80),
		append(bytes.Repeat([]byte{0xff}, 1024), 0x00, 0x00, 0x00, 0xff, 0x00),
	} {
		checkAgainstReference(t, data, IP{}, IP{}, 0, 0)
	}

	cfg := &quick.Config{
		MaxCount: 2000,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			data := make([]byte, r.Intn(2049))
			r.Read(data)
			var src, dst IP
			r.Read(src[:])
			r.Read(dst[:])
			args[0] = reflect.ValueOf(data)
			args[1] = reflect.ValueOf(src)
			args[2] = reflect.ValueOf(dst)
			args[3] = reflect.ValueOf(Protocol(r.Intn(256)))
			args[4] = reflect.ValueOf(r.Uint32() >> 1)
		},
	}
	agree := func(data []byte, src, dst IP, proto Protocol, seed uint32) bool {
		return Checksum(data) == refChecksum(data) &&
			TransportChecksum(src, dst, proto, data) == refTransportChecksum(src, dst, proto, data) &&
			finishChecksum(sumWords(seed, data)) == finishChecksum(refSumWords(seed, data))
	}
	if err := quick.Check(agree, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzChecksum compares Checksum and TransportChecksum with the
// byte-pair reference on arbitrary bytes, addresses and protocols.
//
//	go test -run '^$' -fuzz '^FuzzChecksum$' -fuzztime 10s ./internal/packet
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), uint8(0))
	f.Add([]byte{0xab}, uint32(0x0a000001), uint32(0x0a000002), uint8(ProtoTCP))
	f.Add(bytes.Repeat([]byte{0xff}, 1481), ^uint32(0), ^uint32(0), uint8(ProtoUDP))
	f.Add(make([]byte, 1480), uint32(0), uint32(0), uint8(ProtoTCP))
	f.Fuzz(func(t *testing.T, data []byte, src, dst uint32, proto uint8) {
		s := IP{byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src)}
		d := IP{byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst)}
		checkAgainstReference(t, data, s, d, Protocol(proto), src>>1)
	})
}
