package wire

import "fmt"

// Telemetry batch codec: the out-of-band payload non-zero ranks push to the
// rank-0 collector (see internal/comm's telemetry channel and
// internal/obs/agg). One batch carries a point-in-time snapshot of the
// rank's metric registry plus the recorder events emitted since the
// previous batch. The encoding reuses the Buffer/Reader primitives, so the
// telemetry plane shares the fuzz-hardened wire layer with the algorithm's
// exchange planes.
//
// Batches are self-delimiting and versioned: a collector built against a
// newer codec rejects unknown versions instead of misdecoding, and a
// truncated or corrupted batch latches a Reader error rather than
// producing a plausible-but-wrong snapshot.

// telemetryBatchVersion tags the batch encoding; bump on layout changes.
const telemetryBatchVersion = 1

// Metric kinds carried in a MetricRec.
const (
	MetricCounter   = 0
	MetricGauge     = 1
	MetricHistogram = 2
)

// MetricRec is one registry instrument's snapshot.
type MetricRec struct {
	Name string
	Kind uint8 // MetricCounter | MetricGauge | MetricHistogram
	// Value is the counter or gauge reading (unused for histograms).
	Value float64
	// Histogram payload (Kind == MetricHistogram): non-cumulative bucket
	// counts with Buckets[len(Bounds)] the +Inf bucket, plus the running
	// count and sum.
	Bounds  []float64
	Buckets []uint64
	Count   uint64
	Sum     float64
}

// EventRec is one recorder event in wire form. Fields travel as parallel
// key/value slices sorted by key, so the encoding of a batch is
// deterministic for a given logical content.
type EventRec struct {
	Name        string
	Rank        int32
	Level, Iter int32
	TS, Dur     int64
	FieldKeys   []string
	FieldVals   []float64
}

// TelemetryBatch is one push from a rank to the collector.
type TelemetryBatch struct {
	// Rank is the emitting rank; Seq increments per push so the collector
	// can discard duplicate deliveries and order snapshots.
	Rank uint32
	Seq  uint64
	// Final marks the rank's last batch (emitted by its flush on close).
	Final   bool
	Metrics []MetricRec
	Events  []EventRec
}

// PutTelemetryBatch appends the encoded batch.
func (b *Buffer) PutTelemetryBatch(t *TelemetryBatch) {
	b.PutUvarint(telemetryBatchVersion)
	b.PutUvarint(uint64(t.Rank))
	b.PutUvarint(t.Seq)
	if t.Final {
		b.PutBytes([]byte{1})
	} else {
		b.PutBytes([]byte{0})
	}
	b.PutUvarint(uint64(len(t.Metrics)))
	for i := range t.Metrics {
		m := &t.Metrics[i]
		b.PutString(m.Name)
		b.PutBytes([]byte{m.Kind})
		switch m.Kind {
		case MetricHistogram:
			b.PutF64s(m.Bounds)
			b.PutU64s(m.Buckets)
			b.PutUvarint(m.Count)
			b.PutF64(m.Sum)
		default:
			b.PutF64(m.Value)
		}
	}
	b.PutUvarint(uint64(len(t.Events)))
	for i := range t.Events {
		e := &t.Events[i]
		b.PutString(e.Name)
		b.PutUvarint(uint64(e.Rank))
		b.PutUvarint(uint64(e.Level))
		b.PutUvarint(uint64(e.Iter))
		b.PutU64(uint64(e.TS))
		b.PutU64(uint64(e.Dur))
		b.PutUvarint(uint64(len(e.FieldKeys)))
		for j, k := range e.FieldKeys {
			b.PutString(k)
			b.PutF64(e.FieldVals[j])
		}
	}
}

// TelemetryBatch decodes one batch. A decode error (short plane, unknown
// version, implausible element count) is returned and also latched on the
// Reader.
func (r *Reader) TelemetryBatch() (*TelemetryBatch, error) {
	if v := r.Uvarint(); r.err == nil && v != telemetryBatchVersion {
		r.err = fmt.Errorf("wire: telemetry batch version %d, want %d", v, telemetryBatchVersion)
	}
	t := &TelemetryBatch{}
	t.Rank = r.u32Capped("rank")
	t.Seq = r.Uvarint()
	if fb := r.Bytes(1); len(fb) == 1 {
		t.Final = fb[0] != 0
	}
	// A bad count latches r.err, which ends the loops below.
	nm, _ := r.vecLen("metrics", 2)
	for i := 0; i < nm && r.err == nil; i++ {
		var m MetricRec
		m.Name = r.String()
		if kb := r.Bytes(1); len(kb) == 1 {
			m.Kind = kb[0]
		}
		switch m.Kind {
		case MetricCounter, MetricGauge:
			m.Value = r.F64()
		case MetricHistogram:
			m.Bounds = r.F64s(nil)
			m.Buckets = r.U64s(nil)
			m.Count = r.Uvarint()
			m.Sum = r.F64()
			if r.err == nil && len(m.Buckets) != len(m.Bounds)+1 {
				r.err = fmt.Errorf("wire: histogram %q has %d buckets for %d bounds", m.Name, len(m.Buckets), len(m.Bounds))
			}
		default:
			if r.err == nil {
				r.err = fmt.Errorf("wire: unknown metric kind %d", m.Kind)
			}
		}
		t.Metrics = append(t.Metrics, m)
	}
	ne, _ := r.vecLen("events", 8)
	for i := 0; i < ne && r.err == nil; i++ {
		var e EventRec
		e.Name = r.String()
		e.Rank = int32(r.u32Capped("event rank"))
		e.Level = int32(r.u32Capped("event level"))
		e.Iter = int32(r.u32Capped("event iter"))
		e.TS = int64(r.U64())
		e.Dur = int64(r.U64())
		nf, _ := r.vecLen("event fields", 9)
		for j := 0; j < nf && r.err == nil; j++ {
			e.FieldKeys = append(e.FieldKeys, r.String())
			e.FieldVals = append(e.FieldVals, r.F64())
		}
		t.Events = append(t.Events, e)
	}
	if r.err != nil {
		return nil, r.err
	}
	return t, nil
}

// u32Capped decodes a varint that must fit a uint32 (rank and loop indices).
func (r *Reader) u32Capped(what string) uint32 {
	v := r.Uvarint()
	if r.err == nil && v > uint64(^uint32(0)) {
		r.err = fmt.Errorf("wire: %s %d outside uint32 range", what, v)
		return 0
	}
	return uint32(v)
}
