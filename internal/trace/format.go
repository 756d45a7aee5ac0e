// Package trace implements the branch-trace format: a versioned, compact
// binary container for one program's complete branch behaviour, recorded
// from the functional emulator and replayed as a first-class workload.
//
// A trace file is a 6-byte preamble (magic "ACBT" + version) followed by a
// sequence of CRC-framed blocks:
//
//	type    u8
//	length  uvarint      payload byte count
//	payload [length]byte
//	crc     u32le        CRC-32 (IEEE) of the payload
//
// Block order is fixed: meta (required, first), then at most one each of
// program, memory and merge-points, then zero or more branch-record blocks,
// then the end block, then EOF. The meta block carries the ISA fingerprint
// (see isa.Fingerprint) and workload provenance; the program block embeds
// the full instruction stream in the isa.EncodeProgram format and the
// memory block the initial image, so a trace is self-contained: replay
// rebuilds the exact program and memory the recorder ran, which is what
// makes replayed timing byte-identical to the recorded run. Branch records
// are delta-encoded: one uvarint packing the zigzag PC delta with the taken
// bit, plus the zigzag target delta for taken branches. Merge-point records
// pair each conditional branch PC with its static reconvergence PC from the
// post-dominator analysis.
//
// Every multi-byte scalar is little-endian; all counts are validated
// against the framing before allocation, so a truncated or bit-flipped
// file produces an error — never a panic or an unbounded allocation.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

var traceMagic = [4]byte{'A', 'C', 'B', 'T'}

const traceVersion = 1

// Block types.
const (
	blockMeta   = 1 // ISA fingerprint + provenance
	blockProg   = 2 // isa.EncodeProgram payload
	blockMemory = 3 // sparse initial memory image
	blockMerge  = 4 // branch PC -> reconvergence PC table
	blockBranch = 5 // delta-encoded branch outcome records
	blockEnd    = 6 // record/step totals + halt flag
)

// Format limits. Decoding rejects anything beyond them, bounding what a
// hostile input can make the reader allocate.
const (
	maxBlockLen  = 1 << 28 // bytes per block payload
	maxStringLen = 1 << 12 // provenance string bytes
	// maxMemoryPages caps the pages the memory image touches (256 MiB of
	// isa.PageBytes pages; the suite's largest image, h264ref's, touches
	// 4136). One word per page costs only 3 payload bytes, so the block
	// length alone would let a 60 KB block build 20k pages.
	maxMemoryPages = 1 << 16
	// branchBlockRecords is the writer's records-per-block batch size.
	branchBlockRecords = 4096
)

// Header is the trace's identity: which ISA revision recorded it and where
// the program came from. It deliberately carries no timestamps — the same
// recording must produce the same bytes regardless of when or under how
// many jobs it ran.
type Header struct {
	ISAHash uint64 // isa.Fingerprint() of the recording build
	Source  string // workload or program name
	Kind    string // provenance class: "workload", "difftest", ...
	Seed    uint64 // generator seed of the source program
}

// Branch is one recorded conditional-branch outcome.
type Branch struct {
	PC     int
	Taken  bool
	Target int // architectural target when taken (pc+1 otherwise)
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// payloadCursor parses a block payload with bounds-checked reads.
type payloadCursor struct {
	buf []byte
	off int
}

func (c *payloadCursor) remaining() int { return len(c.buf) - c.off }

func (c *payloadCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated or malformed varint at payload offset %d", c.off)
	}
	c.off += n
	return v, nil
}

func (c *payloadCursor) varint() (int64, error) {
	u, err := c.uvarint()
	return unzigzag(u), err
}

func (c *payloadCursor) u64() (uint64, error) {
	if c.remaining() < 8 {
		return 0, fmt.Errorf("trace: truncated u64 at payload offset %d", c.off)
	}
	v := binary.LittleEndian.Uint64(c.buf[c.off:])
	c.off += 8
	return v, nil
}

func (c *payloadCursor) byte() (byte, error) {
	if c.remaining() < 1 {
		return 0, fmt.Errorf("trace: truncated byte at payload offset %d", c.off)
	}
	b := c.buf[c.off]
	c.off++
	return b, nil
}

func (c *payloadCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("trace: string length %d exceeds limit %d", n, maxStringLen)
	}
	if uint64(c.remaining()) < n {
		return "", fmt.Errorf("trace: truncated string at payload offset %d", c.off)
	}
	s := string(c.buf[c.off : c.off+int(n)])
	c.off += int(n)
	return s, nil
}

func (c *payloadCursor) done() error {
	if c.remaining() != 0 {
		return fmt.Errorf("trace: %d trailing bytes in block payload", c.remaining())
	}
	return nil
}

// readPayload reads exactly n payload bytes, growing the buffer
// incrementally so a lying length field fails at EOF instead of
// pre-allocating gigabytes.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	if n > maxBlockLen {
		return nil, fmt.Errorf("trace: block length %d exceeds limit %d", n, maxBlockLen)
	}
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		step := min(n-uint64(len(buf)), chunk)
		old := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return nil, fmt.Errorf("trace: truncated block payload: %w", err)
		}
	}
	return buf, nil
}

func encodeMeta(h Header) ([]byte, error) {
	if len(h.Source) > maxStringLen || len(h.Kind) > maxStringLen {
		return nil, fmt.Errorf("trace: provenance string exceeds %d bytes", maxStringLen)
	}
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, h.ISAHash)
	b = binary.AppendUvarint(b, uint64(len(h.Source)))
	b = append(b, h.Source...)
	b = binary.AppendUvarint(b, uint64(len(h.Kind)))
	b = append(b, h.Kind...)
	b = binary.LittleEndian.AppendUint64(b, h.Seed)
	return b, nil
}

func decodeMeta(payload []byte) (Header, error) {
	c := &payloadCursor{buf: payload}
	var h Header
	var err error
	if h.ISAHash, err = c.u64(); err != nil {
		return h, err
	}
	if h.Source, err = c.str(); err != nil {
		return h, err
	}
	if h.Kind, err = c.str(); err != nil {
		return h, err
	}
	if h.Seed, err = c.u64(); err != nil {
		return h, err
	}
	return h, c.done()
}
