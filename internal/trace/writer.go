package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sort"

	"acb/internal/isa"
)

// Writer streams a trace file. Section blocks (program, memory, merge
// points) must be written before the first Branch call; Close flushes the
// final branch block and writes the end block. Errors are sticky: the
// first write failure is returned by every subsequent call, so the
// branch-record hot path can stay error-blind and check once at Close.
type Writer struct {
	w       io.Writer
	err     error
	prevPC  int
	recBuf  []byte // encoded records of the open branch block
	recs    int
	total   int64
	started bool // a branch block has been opened
	wrote   [blockEnd + 1]bool
	closed  bool
}

// NewWriter writes the preamble and meta block and returns a Writer.
// A zero h.ISAHash is filled with the current build's isa.Fingerprint.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.ISAHash == 0 {
		h.ISAHash = isa.Fingerprint()
	}
	tw := &Writer{w: w}
	pre := make([]byte, 0, 6)
	pre = append(pre, traceMagic[:]...)
	pre = binary.LittleEndian.AppendUint16(pre, traceVersion)
	if _, err := w.Write(pre); err != nil {
		return nil, fmt.Errorf("trace: write preamble: %w", err)
	}
	meta, err := encodeMeta(h)
	if err != nil {
		return nil, err
	}
	if err := tw.writeBlock(blockMeta, meta); err != nil {
		return nil, err
	}
	return tw, nil
}

func (tw *Writer) writeBlock(typ byte, payload []byte) error {
	if tw.err != nil {
		return tw.err
	}
	if uint64(len(payload)) > maxBlockLen {
		tw.err = fmt.Errorf("trace: block type %d payload %d exceeds limit", typ, len(payload))
		return tw.err
	}
	frame := make([]byte, 0, len(payload)+16)
	frame = append(frame, typ)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := tw.w.Write(frame); err != nil {
		tw.err = fmt.Errorf("trace: write block type %d: %w", typ, err)
	}
	return tw.err
}

func (tw *Writer) section(typ byte) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		tw.err = fmt.Errorf("trace: write after Close")
	} else if tw.started {
		tw.err = fmt.Errorf("trace: section block type %d after branch records", typ)
	} else if tw.wrote[typ] {
		tw.err = fmt.Errorf("trace: duplicate block type %d", typ)
	}
	tw.wrote[typ] = true
	return tw.err
}

// PutProgram embeds the instruction stream (isa.EncodeProgram format).
func (tw *Writer) PutProgram(p []isa.Instruction) error {
	if err := tw.section(blockProg); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := isa.EncodeProgram(&buf, p); err != nil {
		tw.err = err
		return err
	}
	return tw.writeBlock(blockProg, buf.Bytes())
}

// PutMemory embeds the initial memory image as delta-encoded sparse words
// in ascending address order.
func (tw *Writer) PutMemory(m *isa.Memory) error {
	if err := tw.section(blockMemory); err != nil {
		return err
	}
	// The first walk sizes the payload, so the second appends into one
	// exact allocation: growing a multi-MB slice by append would allocate
	// several times its length.
	n, size := 0, 0
	prev := int64(0)
	m.Words(func(addr, val int64) bool {
		n++
		size += uvarintLen(zigzag(addr-prev)) + uvarintLen(zigzag(val))
		prev = addr
		return true
	})
	b := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+size), uint64(n))
	prev = 0
	m.Words(func(addr, val int64) bool {
		b = binary.AppendUvarint(b, zigzag(addr-prev))
		b = binary.AppendUvarint(b, zigzag(val))
		prev = addr
		return true
	})
	return tw.writeBlock(blockMemory, b)
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// PutMergePoints embeds the static branch-PC -> reconvergence-PC table
// (prog.CFG.AllReconvergences output), sorted by branch PC.
func (tw *Writer) PutMergePoints(mp map[int]int) error {
	if err := tw.section(blockMerge); err != nil {
		return err
	}
	pcs := make([]int, 0, len(mp))
	for pc := range mp {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(pcs)))
	prev := 0
	for _, pc := range pcs {
		b = binary.AppendUvarint(b, zigzag(int64(pc-prev)))
		b = binary.AppendUvarint(b, zigzag(int64(mp[pc]-pc)))
		prev = pc
	}
	return tw.writeBlock(blockMerge, b)
}

// Branch appends one conditional-branch outcome. Records are batched into
// blocks of branchBlockRecords; write errors surface here or at Close.
func (tw *Writer) Branch(pc int, taken bool, target int) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		tw.err = fmt.Errorf("trace: Branch after Close")
		return tw.err
	}
	tw.started = true
	key := zigzag(int64(pc-tw.prevPC)) << 1
	if taken {
		key |= 1
	}
	tw.recBuf = binary.AppendUvarint(tw.recBuf, key)
	if taken {
		tw.recBuf = binary.AppendUvarint(tw.recBuf, zigzag(int64(target-(pc+1))))
	}
	tw.prevPC = pc
	tw.recs++
	tw.total++
	if tw.recs >= branchBlockRecords {
		return tw.flushBranches()
	}
	return nil
}

func (tw *Writer) flushBranches() error {
	if tw.recs == 0 {
		return tw.err
	}
	payload := binary.AppendUvarint(make([]byte, 0, len(tw.recBuf)+4), uint64(tw.recs))
	payload = append(payload, tw.recBuf...)
	tw.recBuf = tw.recBuf[:0]
	tw.recs = 0
	return tw.writeBlock(blockBranch, payload)
}

// Close flushes pending branch records and writes the end block carrying
// the record total, functional step count and halt flag.
func (tw *Writer) Close(steps int64, halted bool) error {
	if tw.closed {
		return fmt.Errorf("trace: double Close")
	}
	tw.closed = true
	if err := tw.flushBranches(); err != nil {
		return err
	}
	var b []byte
	b = binary.AppendUvarint(b, uint64(tw.total))
	b = binary.AppendUvarint(b, uint64(steps))
	if halted {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return tw.writeBlock(blockEnd, b)
}
