package mapreduce

import (
	"fmt"
	"strconv"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// TextInputFormat parses a block into one record per line, like
// Hadoop's TextInputFormat. It is precise: every line is returned and
// the sampleRatio argument is ignored. The approximation-aware
// counterpart lives in the approx package (ApproxTextInput).
type TextInputFormat struct{}

// Open implements InputFormat. The reader pushes zero-copy records over
// the block's line backing: no pipe goroutine, no scanner copy, no
// per-record string allocations.
//
//approx:compute
func (TextInputFormat) Open(b *dfs.Block, _ float64, _ int64) (RecordReader, error) {
	if b == nil {
		return nil, fmt.Errorf("mapreduce: nil block")
	}
	return &textReader{
		block:     b,
		keyPrefix: b.ID() + ":",
		meter:     vtime.NewDeterministic(),
	}, nil
}

type textReader struct {
	block     *dfs.Block
	keyPrefix string
	meter     vtime.Meter
	m         ReaderMeasure
	bufs      *BufList
	// keyBuf holds the record key: the "blockID:" prefix stays resident
	// at the front and only the offset digits are rewritten per record,
	// so key formatting allocates nothing.
	keyBuf []byte
}

// SetMeter implements MeterSetter.
func (t *textReader) SetMeter(m vtime.Meter) { t.meter = m }

// SetBuffers implements BufferLender: working buffers (key scratch,
// line carry) are borrowed from the attempt's free list.
func (t *textReader) SetBuffers(l *BufList) { t.bufs = l }

// key formats the record key for the given record index into keyBuf and
// returns a view of it, valid until the next call.
//
//approx:hotpath
func (t *textReader) key(idx int64) []byte {
	if t.keyBuf == nil {
		min := len(t.keyPrefix) + 20 // prefix + widest int64 digits
		if t.bufs != nil {
			t.keyBuf = t.bufs.Get(min)
		} else {
			t.keyBuf = make([]byte, 0, min)
		}
		t.keyBuf = append(t.keyBuf, t.keyPrefix...)
	}
	t.keyBuf = strconv.AppendInt(t.keyBuf[:len(t.keyPrefix)], idx, 10)
	return t.keyBuf
}

// Push implements RecordReader over the block's line backing. Each line
// is metered as one Begin/End(OpRead, 1, len+1) bracket, and a final
// End(OpRead, 0, 0) closes the block. Record Key/Value are views of
// reusable buffers, valid only inside fn.
//
//approx:compute
//approx:hotpath
func (t *textReader) Push(fn func(rec Record)) error {
	var carry []byte
	if t.bufs != nil {
		carry = t.bufs.Get(256)
	}
	carry, err := t.block.Lines(carry, func(line []byte) error {
		t.meter.Begin(vtime.OpRead)
		t.m.Items++
		t.m.Sampled++
		t.m.Bytes += int64(len(line)) + 1
		key := t.key(t.m.Items - 1)
		t.m.ReadSecs += t.meter.End(vtime.OpRead, 1, int64(len(line))+1)
		fn(Record{Key: zerocopy.String(key), Value: zerocopy.String(line)})
		return nil
	})
	if t.bufs != nil {
		t.bufs.Put(carry)
	}
	if err != nil {
		//lint:ignore hotpath error path, taken at most once per block
		return fmt.Errorf("mapreduce: reading %s: %w", t.keyPrefix, err)
	}
	t.meter.Begin(vtime.OpRead)
	t.m.ReadSecs += t.meter.End(vtime.OpRead, 0, 0)
	return nil
}

func (t *textReader) Measure() ReaderMeasure { return t.m }

//approx:compute
func (t *textReader) Close() error {
	if t.bufs != nil && t.keyBuf != nil {
		t.bufs.Put(t.keyBuf)
		t.keyBuf = nil
	}
	return nil
}
