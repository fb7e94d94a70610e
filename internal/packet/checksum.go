package packet

import "encoding/binary"

// Checksum computes the RFC 1071 internet checksum over data.
func Checksum(data []byte) uint16 {
	return finishChecksum(sumWords(0, data))
}

// sumWords accumulates the 16-bit big-endian words of data into sum. An
// odd trailing byte is padded with zero, per RFC 1071.
//
// The words are added 32 bits at a time into a 64-bit accumulator, 16
// bytes per iteration, and the total is folded back to 32 bits with
// end-around carry. RFC 1071 §2(C) allows the sum in any word size that
// is a multiple of 16 bits: 2^16−1 divides 2^32−1, so folding the result
// to 16 bits gives the byte-pair sum's checksum, and the accumulator is
// zero exactly when every word is.
func sumWords(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	for len(data) >= 16 {
		w := data[:16]
		acc += uint64(binary.BigEndian.Uint32(w[0:4])) + uint64(binary.BigEndian.Uint32(w[4:8])) +
			uint64(binary.BigEndian.Uint32(w[8:12])) + uint64(binary.BigEndian.Uint32(w[12:16]))
		data = data[16:]
	}
	for len(data) >= 4 {
		acc += uint64(binary.BigEndian.Uint32(data))
		data = data[4:]
	}
	if len(data) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		acc += uint64(data[0]) << 8
	}
	return fold32(acc)
}

// fold32 folds a 64-bit one's-complement accumulator to 32 bits with
// end-around carry.
func fold32(acc uint64) uint32 {
	acc = acc&0xffffffff + acc>>32
	acc = acc&0xffffffff + acc>>32
	return uint32(acc)
}

func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// pseudoHeaderSum accumulates the IPv4 pseudo-header used by TCP and UDP
// checksums: source, destination, zero+protocol, and the transport length.
func pseudoHeaderSum(src, dst IP, proto Protocol, length int) uint32 {
	return fold32(uint64(binary.BigEndian.Uint32(src[:])) + uint64(binary.BigEndian.Uint32(dst[:])) +
		uint64(proto) + uint64(uint32(length)))
}

// TransportChecksum computes the TCP/UDP checksum of segment (header plus
// payload) with the IPv4 pseudo-header for src/dst/proto.
func TransportChecksum(src, dst IP, proto Protocol, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	return finishChecksum(sumWords(sum, segment))
}
