package approx

import (
	"fmt"
	"math/rand"
	"strconv"

	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// ApproxTextInput is the sampling analog of TextInputFormat (the
// paper's ApproxTextInputFormat): it parses every line of the block —
// input data sampling cannot avoid the read I/O, which is why task
// dropping saves more time (Section 5.2) — but returns each record
// with probability sampleRatio. The record reader tracks both the
// block's total unit count M and the sampled count m, which the
// framework forwards to reducers for the multi-stage estimators.
type ApproxTextInput struct{}

// Open implements mapreduce.InputFormat. Like TextInputFormat, the
// reader pushes zero-copy records over the block's line backing; the
// per-line sample decisions come from an RNG seeded by seed.
//
//approx:compute
func (ApproxTextInput) Open(b *dfs.Block, sampleRatio float64, seed int64) (mapreduce.RecordReader, error) {
	if b == nil {
		return nil, fmt.Errorf("approx: nil block")
	}
	if sampleRatio <= 0 || sampleRatio > 1 {
		sampleRatio = 1
	}
	return &samplingReader{
		block:     b,
		keyPrefix: b.ID() + ":",
		ratio:     sampleRatio,
		rng:       stats.NewRand(seed),
		meter:     vtime.NewDeterministic(),
	}, nil
}

type samplingReader struct {
	block     *dfs.Block
	keyPrefix string
	ratio     float64
	rng       *rand.Rand
	meter     vtime.Meter
	m         mapreduce.ReaderMeasure
	bufs      *mapreduce.BufList
	keyBuf    []byte // "blockID:" prefix resident, offset digits rewritten per record
}

// SetMeter implements mapreduce.MeterSetter.
func (r *samplingReader) SetMeter(m vtime.Meter) { r.meter = m }

// SetBuffers implements mapreduce.BufferLender.
func (r *samplingReader) SetBuffers(l *mapreduce.BufList) { r.bufs = l }

// key formats the record key for the given record index into keyBuf and
// returns a view of it, valid until the next call.
//
//approx:hotpath
func (r *samplingReader) key(idx int64) []byte {
	if r.keyBuf == nil {
		min := len(r.keyPrefix) + 20
		if r.bufs != nil {
			r.keyBuf = r.bufs.Get(min)
		} else {
			r.keyBuf = make([]byte, 0, min)
		}
		r.keyBuf = append(r.keyBuf, r.keyPrefix...)
	}
	r.keyBuf = strconv.AppendInt(r.keyBuf[:len(r.keyPrefix)], idx, 10)
	return r.keyBuf
}

// sampleLine accounts one scanned line and reports whether it is in the
// sample. Skipped lines still count toward Items and Bytes — and toward
// the metered read cost — because the block is read in full either way.
//
//approx:hotpath
func (r *samplingReader) sampleLine(n int64, units, bytes *int64) bool {
	r.m.Items++
	r.m.Bytes += n + 1
	*units++
	*bytes += n + 1
	if r.ratio < 1 && r.rng.Float64() >= r.ratio {
		return false // unit not in the sample
	}
	r.m.Sampled++
	return true
}

// Push implements mapreduce.RecordReader over the block's line backing.
// Reads are metered as one Begin/End(OpRead) bracket per sampled-record
// segment: skipped lines' units and bytes accumulate into the End of
// the segment that ends at the next sampled line (or at the block's
// end). Record Key/Value are views of reusable buffers, valid only
// inside fn.
//
//approx:compute
//approx:hotpath
func (r *samplingReader) Push(fn func(rec mapreduce.Record)) error {
	var carry []byte
	if r.bufs != nil {
		carry = r.bufs.Get(256)
	}
	r.meter.Begin(vtime.OpRead)
	var units, bytes int64
	carry, err := r.block.Lines(carry, func(line []byte) error {
		idx := r.m.Items
		if !r.sampleLine(int64(len(line)), &units, &bytes) {
			return nil
		}
		key := r.key(idx)
		r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
		units, bytes = 0, 0
		fn(mapreduce.Record{Key: zerocopy.String(key), Value: zerocopy.String(line)})
		r.meter.Begin(vtime.OpRead)
		return nil
	})
	if r.bufs != nil {
		r.bufs.Put(carry)
	}
	r.m.ReadSecs += r.meter.End(vtime.OpRead, units, bytes)
	if err != nil {
		//lint:ignore hotpath error path, taken at most once per block
		return fmt.Errorf("approx: reading %s: %w", r.keyPrefix, err)
	}
	return nil
}

func (r *samplingReader) Measure() mapreduce.ReaderMeasure { return r.m }

//approx:compute
func (r *samplingReader) Close() error {
	if r.bufs != nil && r.keyBuf != nil {
		r.bufs.Put(r.keyBuf)
		r.keyBuf = nil
	}
	return nil
}
