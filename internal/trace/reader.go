package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"acb/internal/isa"
)

// memWord is one non-zero word of the initial memory image.
type memWord struct {
	addr, val int64
}

// Reader streams a trace file: NewReader consumes the preamble, meta block
// and every section block up to the first branch record; Read then yields
// records one at a time until io.EOF, which is returned only after a valid
// end block and a clean underlying EOF. Any truncation, framing error, CRC
// mismatch or implausible count is an error — Reader never panics on
// hostile input and never allocates more than the input's actual size plus
// a fixed overhead.
type Reader struct {
	r      *bufio.Reader
	hdr    Header
	prog   []isa.Instruction
	mem    []memWord
	merges map[int]int

	pending []Branch // decoded records of the current branch block
	next    int      // cursor into pending
	prevPC  int
	total   int64 // records decoded so far

	done   bool
	steps  int64
	halted bool
}

// NewReader parses the preamble and all section blocks.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{r: bufio.NewReader(r)}
	pre := make([]byte, 6)
	if _, err := io.ReadFull(tr.r, pre); err != nil {
		return nil, fmt.Errorf("trace: read preamble: %w", err)
	}
	if [4]byte(pre[:4]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q", pre[:4])
	}
	if v := binary.LittleEndian.Uint16(pre[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (have %d)", v, traceVersion)
	}
	typ, payload, err := tr.readBlock()
	if err != nil {
		return nil, err
	}
	if typ != blockMeta {
		return nil, fmt.Errorf("trace: first block type %d, want meta", typ)
	}
	if tr.hdr, err = decodeMeta(payload); err != nil {
		return nil, err
	}
	// Consume section blocks until the first branch block or the end block.
	for {
		typ, payload, err := tr.readBlock()
		if err != nil {
			return nil, err
		}
		switch typ {
		case blockProg:
			if tr.prog != nil {
				return nil, fmt.Errorf("trace: duplicate program block")
			}
			br := bytes.NewReader(payload)
			if tr.prog, err = isa.DecodeProgram(br); err != nil {
				return nil, err
			}
			if br.Len() != 0 {
				return nil, fmt.Errorf("trace: %d trailing bytes in program block", br.Len())
			}
		case blockMemory:
			if tr.mem != nil {
				return nil, fmt.Errorf("trace: duplicate memory block")
			}
			if tr.mem, err = decodeMemory(payload); err != nil {
				return nil, err
			}
		case blockMerge:
			if tr.merges != nil {
				return nil, fmt.Errorf("trace: duplicate merge-point block")
			}
			if tr.merges, err = decodeMerges(payload, tr.prog); err != nil {
				return nil, err
			}
		case blockBranch:
			if err := tr.decodeBranchBlock(payload); err != nil {
				return nil, err
			}
			return tr, nil
		case blockEnd:
			if err := tr.finish(payload); err != nil {
				return nil, err
			}
			return tr, nil
		default:
			return nil, fmt.Errorf("trace: unknown block type %d", typ)
		}
	}
}

// readBlock reads one CRC-framed block.
func (tr *Reader) readBlock() (byte, []byte, error) {
	typ, err := tr.r.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("trace: read block type: %w", err)
	}
	plen, err := binary.ReadUvarint(tr.r)
	if err != nil {
		return 0, nil, fmt.Errorf("trace: read block length: %w", err)
	}
	payload, err := readPayload(tr.r, plen)
	if err != nil {
		return 0, nil, err
	}
	var crc [4]byte
	if _, err := io.ReadFull(tr.r, crc[:]); err != nil {
		return 0, nil, fmt.Errorf("trace: read block crc: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return 0, nil, fmt.Errorf("trace: block type %d crc mismatch: %#x != %#x", typ, got, want)
	}
	return typ, payload, nil
}

func decodeMemory(payload []byte) ([]memWord, error) {
	c := &payloadCursor{buf: payload}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// Every word costs at least two payload bytes (delta + value varints).
	if n > uint64(c.remaining())/2 {
		return nil, fmt.Errorf("trace: memory word count %d exceeds payload", n)
	}
	words := make([]memWord, 0, n)
	prev := int64(0)
	pages := 0
	for i := uint64(0); i < n; i++ {
		d, err := c.varint()
		if err != nil {
			return nil, err
		}
		v, err := c.varint()
		if err != nil {
			return nil, err
		}
		addr := prev + d
		if i > 0 && addr <= prev {
			return nil, fmt.Errorf("trace: memory addresses not strictly ascending at %#x", addr)
		}
		// Ascending words start a new page whenever the page index moves.
		if i == 0 || addr>>isa.PageShift != prev>>isa.PageShift {
			if pages++; pages > maxMemoryPages {
				return nil, fmt.Errorf("trace: memory image touches more than %d pages", maxMemoryPages)
			}
		}
		words = append(words, memWord{addr: addr, val: v})
		prev = addr
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return words, nil
}

func decodeMerges(payload []byte, p []isa.Instruction) (map[int]int, error) {
	c := &payloadCursor{buf: payload}
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(c.remaining())/2 {
		return nil, fmt.Errorf("trace: merge-point count %d exceeds payload", n)
	}
	mp := make(map[int]int, n)
	prev := 0
	for i := uint64(0); i < n; i++ {
		d, err := c.varint()
		if err != nil {
			return nil, err
		}
		rd, err := c.varint()
		if err != nil {
			return nil, err
		}
		pc := prev + int(d)
		if i > 0 && pc <= prev {
			return nil, fmt.Errorf("trace: merge-point PCs not strictly ascending at %d", pc)
		}
		recon := pc + int(rd)
		if p != nil && (pc < 0 || pc >= len(p) || recon < 0 || recon >= len(p)) {
			return nil, fmt.Errorf("trace: merge point %d -> %d outside program [0,%d)", pc, recon, len(p))
		}
		mp[pc] = recon
		prev = pc
	}
	if err := c.done(); err != nil {
		return nil, err
	}
	return mp, nil
}

func (tr *Reader) decodeBranchBlock(payload []byte) error {
	c := &payloadCursor{buf: payload}
	n, err := c.uvarint()
	if err != nil {
		return err
	}
	// Every record costs at least one payload byte.
	if n > uint64(c.remaining()) {
		return fmt.Errorf("trace: branch record count %d exceeds payload", n)
	}
	if cap(tr.pending) < int(n) {
		tr.pending = make([]Branch, 0, n)
	}
	tr.pending = tr.pending[:0]
	tr.next = 0
	for i := uint64(0); i < n; i++ {
		key, err := c.uvarint()
		if err != nil {
			return err
		}
		taken := key&1 != 0
		pc := tr.prevPC + int(unzigzag(key>>1))
		target := pc + 1
		if taken {
			td, err := c.varint()
			if err != nil {
				return err
			}
			target = pc + 1 + int(td)
		}
		if tr.prog != nil {
			if pc < 0 || pc >= len(tr.prog) {
				return fmt.Errorf("trace: branch record PC %d outside program [0,%d)", pc, len(tr.prog))
			}
			in := &tr.prog[pc]
			if !in.IsBranch() {
				return fmt.Errorf("trace: branch record at PC %d, but instruction is %s", pc, in)
			}
			if taken && target != in.Target {
				return fmt.Errorf("trace: branch record at PC %d has target %d, program says %d", pc, target, in.Target)
			}
		}
		tr.pending = append(tr.pending, Branch{PC: pc, Taken: taken, Target: target})
		tr.prevPC = pc
	}
	tr.total += int64(n)
	return c.done()
}

func (tr *Reader) finish(payload []byte) error {
	c := &payloadCursor{buf: payload}
	n, err := c.uvarint()
	if err != nil {
		return err
	}
	steps, err := c.uvarint()
	if err != nil {
		return err
	}
	hb, err := c.byte()
	if err != nil {
		return err
	}
	if hb > 1 {
		return fmt.Errorf("trace: end block halt flag %d", hb)
	}
	if err := c.done(); err != nil {
		return err
	}
	if int64(n) != tr.total {
		return fmt.Errorf("trace: end block says %d records, decoded %d", n, tr.total)
	}
	if _, err := tr.r.ReadByte(); err != io.EOF {
		return fmt.Errorf("trace: trailing data after end block")
	}
	tr.done = true
	tr.steps = int64(steps)
	tr.halted = hb == 1
	return nil
}

// Read returns the next branch record, or io.EOF after the end block.
func (tr *Reader) Read() (Branch, error) {
	for tr.next >= len(tr.pending) {
		if tr.done {
			return Branch{}, io.EOF
		}
		typ, payload, err := tr.readBlock()
		if err != nil {
			return Branch{}, err
		}
		switch typ {
		case blockBranch:
			if err := tr.decodeBranchBlock(payload); err != nil {
				return Branch{}, err
			}
		case blockEnd:
			if err := tr.finish(payload); err != nil {
				return Branch{}, err
			}
		default:
			return Branch{}, fmt.Errorf("trace: block type %d after branch records", typ)
		}
	}
	b := tr.pending[tr.next]
	tr.next++
	return b, nil
}

// Header returns the trace identity block.
func (tr *Reader) Header() Header { return tr.hdr }

// Program returns the embedded instruction stream (nil when absent).
func (tr *Reader) Program() []isa.Instruction { return tr.prog }

// MergePoints returns the embedded reconvergence table (nil when absent).
func (tr *Reader) MergePoints() map[int]int { return tr.merges }

// Memory materializes a fresh copy of the embedded initial memory image.
// Each call returns an independent Memory, so concurrent replays can
// mutate their images freely.
func (tr *Reader) Memory() *isa.Memory { return buildMemory(tr.mem) }

// Summary returns the end-block totals; valid only after Read has returned
// io.EOF (ok reports whether the end block was reached).
func (tr *Reader) Summary() (records, steps int64, halted, ok bool) {
	return tr.total, tr.steps, tr.halted, tr.done
}

func buildMemory(words []memWord) *isa.Memory {
	m := isa.NewMemory()
	for _, w := range words {
		m.Store(w.addr, w.val)
	}
	return m
}

// Trace is a fully decoded trace file.
type Trace struct {
	Header   Header
	Prog     []isa.Instruction
	Merges   map[int]int
	Branches []Branch
	Steps    int64
	Halted   bool

	mem []memWord
}

// Memory materializes a fresh copy of the initial memory image.
func (t *Trace) Memory() *isa.Memory { return buildMemory(t.mem) }

// Decode reads and validates an entire trace file.
func Decode(r io.Reader) (*Trace, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		Header: tr.Header(),
		Prog:   tr.Program(),
		Merges: tr.MergePoints(),
		mem:    tr.mem,
	}
	for {
		b, err := tr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Branches = append(t.Branches, b)
	}
	_, t.Steps, t.Halted, _ = tr.Summary()
	return t, nil
}

// DecodeFile decodes the trace at path.
func DecodeFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
