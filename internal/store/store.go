// Package store persists digitized golden traces and prepared operating
// points on disk, content-addressed by their eval.GoldenKey and
// eval.ParamKey. It is the bottom tier of the golden and
// parametrization caches: the in-memory caches serve repeats within a
// process, the store serves them across processes — a warm store lets
// fig7/sweep/circuit runs start with zero transient solves and zero
// model fits.
//
// Layout (under the root passed to Open):
//
//	VERSION               format stamp ("hdgs-v1\n"); mismatch refuses Open
//	objects/<hh>/<hash>   one entry per golden run or operating point,
//	                      hh = first hash byte
//	tmp/                  staging area for atomic writes
//
// The address <hash> is the SHA-256 of a canonical key string that
// spells out every key field (gate name, seed, every bench and config
// parameter with exact hex-float encoding) plus the entry kind, so any
// parameter change — however small — addresses a different entry. An
// operating-point key also carries prepVersion, so a change to the
// measure-and-fit chain retires old points without a format bump.
// Entries are self-describing: a magic/version header, the kind, the
// full canonical key echoed back, the payload, and a CRC-32 of
// everything before it. A checksum, key-echo or header mismatch (torn
// write, corruption, hash collision) makes the entry a counted miss;
// the cache recomputes and overwrites it.
//
// Writes are atomic (temp file + rename) and asynchronous: the Save
// methods enqueue to a single writer goroutine, so the solver hot path
// never waits on disk. Flush drains the queue; Close flushes and stops the
// writer. All methods are safe for concurrent use.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"hybriddelay/internal/eval"
	"hybriddelay/internal/gate"
	"hybriddelay/internal/gen"
	"hybriddelay/internal/hybrid"
	"hybriddelay/internal/inertial"
	"hybriddelay/internal/nor"
	"hybriddelay/internal/spice"
	"hybriddelay/internal/trace"
)

const (
	magic   = "HDGS" // HybridDelay Golden Store
	version = 1

	kindTrace = byte(1) // single digitized trace (gate golden)
	kindSet   = byte(2) // trace set (composed circuit golden)
	kindPoint = byte(3) // prepared operating point (measurement + fits)

	// prepVersion is part of every operating-point key. Bump it whenever
	// a code change alters what the measure-and-fit chain computes for
	// the same key (solver, measurement or fit changes): old points then
	// simply miss instead of serving stale fits.
	prepVersion = 1

	versionStamp = "hdgs-v1\n"
)

// Stats counts store traffic since Open.
type Stats struct {
	Hits        int64 // loads served from a valid entry
	Misses      int64 // loads with no entry on disk
	Corrupt     int64 // loads rejected by header/checksum/key verification
	Writes      int64 // entries written successfully
	WriteErrors int64 // background writes that failed
}

// Store is an on-disk content-addressed golden-trace store. It
// implements eval.PersistentStore.
type Store struct {
	dir string

	mu     sync.Mutex
	closed bool
	stats  Stats

	queue      chan writeReq
	writerDone chan struct{}
}

type writeReq struct {
	path string
	data []byte
	done chan struct{} // non-nil: flush token, no write
}

// Open creates or opens a store rooted at dir. A store written by an
// incompatible format version refuses to open (delete the directory to
// rebuild it).
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"", "objects", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	vpath := filepath.Join(dir, "VERSION")
	if b, err := os.ReadFile(vpath); err == nil {
		if string(b) != versionStamp {
			return nil, fmt.Errorf("store: %s holds incompatible format %q (want %q)", dir, string(b), versionStamp)
		}
	} else if os.IsNotExist(err) {
		if err := writeAtomic(dir, vpath, []byte(versionStamp)); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	} else {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:        dir,
		queue:      make(chan writeReq, 128),
		writerDone: make(chan struct{}),
	}
	go s.writer()
	return s, nil
}

// Stats returns a snapshot of the traffic counters. Pending background
// writes are not yet counted; call Flush first for exact totals.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// writer is the single background goroutine performing all disk writes.
func (s *Store) writer() {
	for req := range s.queue {
		if req.done != nil {
			close(req.done)
			continue
		}
		err := writeAtomic(s.dir, req.path, req.data)
		s.mu.Lock()
		if err != nil {
			s.stats.WriteErrors++
		} else {
			s.stats.Writes++
		}
		s.mu.Unlock()
	}
	close(s.writerDone)
}

// writeAtomic stages data in the store's tmp directory and renames it
// into place, so readers never observe a partially written entry.
func writeAtomic(root, path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Join(root, "tmp"), "put-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// enqueue hands a request to the writer, failing after Close.
func (s *Store) enqueue(req writeReq) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: closed")
	}
	s.mu.Unlock()
	s.queue <- req
	return nil
}

// Flush blocks until every previously enqueued write has landed.
func (s *Store) Flush() error {
	done := make(chan struct{})
	if err := s.enqueue(writeReq{done: done}); err != nil {
		return err
	}
	<-done
	return nil
}

// Close flushes pending writes and stops the writer. The store must not
// be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	<-s.writerDone
	return nil
}

// ---------------------------------------------------------------------
// Content addressing

// hx encodes a float64 exactly (hex mantissa/exponent round-trip), so
// the canonical key never loses precision to decimal formatting.
func hx(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func mosString(b *bytes.Buffer, tag string, m spice.MOSParams) {
	fmt.Fprintf(b, "%s=%t,%s,%s,%s,%s,%s,%s,%s\n", tag,
		m.PMOS, hx(m.VT0), hx(m.K), hx(m.Lambda), hx(m.Cgs), hx(m.Cgd), hx(m.Cdb), hx(m.Gmin))
}

// keyString renders the canonical, versioned content key of one golden
// run. Every field of eval.GoldenKey (and of the structs inside it) is
// spelled out explicitly: adding a field to any of those structs must
// extend this encoding, which the schema-drift guard test enforces.
func keyString(kind byte, k eval.GoldenKey) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "hdgs/%d kind=%d\ngate=%s\nseed=%d\n", version, kind, k.Gate, k.Seed)
	benchString(&b, k.Bench)
	c := k.Config
	fmt.Fprintf(&b, "mu=%s\nsigma=%s\nmode=%d\ninputs=%d\ntransitions=%d\nstart=%s\nmingap=%s\n",
		hx(c.Mu), hx(c.Sigma), int(c.Mode), c.Inputs, c.Transitions, hx(c.Start), hx(c.MinGap))
	return b.String()
}

// pointKeyString renders the canonical content key of one prepared
// operating point: every eval.ParamKey field plus prepVersion.
func pointKeyString(k eval.ParamKey) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "hdgs/%d kind=%d prep=%d\ngate=%s\n", version, kindPoint, prepVersion, k.Gate)
	benchString(&b, k.Bench)
	fmt.Fprintf(&b, "expdmin=%s\n", hx(k.ExpDMin))
	return b.String()
}

// benchString spells out every nor.Params field of a key.
func benchString(b *bytes.Buffer, p nor.Params) {
	fmt.Fprintf(b, "supply=%s,%s\n", hx(p.Supply.VDD), hx(p.Supply.Vth))
	mosString(b, "t1", p.T1)
	mosString(b, "t2", p.T2)
	mosString(b, "t3", p.T3)
	mosString(b, "t4", p.T4)
	fmt.Fprintf(b, "cn=%s\nco=%s\nrise=%s\nmaxstep=%s\nltetol=%s\nmethod=%d\nsolver=%d\nsparsepivot=%s\n",
		hx(p.CN), hx(p.CO), hx(p.InputRise), hx(p.MaxStep), hx(p.LTETol), int(p.Method), int(p.Solver), hx(p.SparsePivotRel))
}

// path maps a canonical key string to its object file.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, "objects", h[:2], h)
}

// Compile-time guards that the canonical encoding covers the key
// structs; the drift test in store_test.go asserts the field counts.
var (
	_                      = gen.Config{}
	_ eval.PersistentStore = (*Store)(nil)
	_ eval.PointStore      = (*Store)(nil)
)

// ---------------------------------------------------------------------
// On-disk object format

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putF64(b *bytes.Buffer, v float64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(v))
	b.Write(tmp[:])
}

// encodeObject frames a payload: magic, version, kind, the canonical
// key echoed in full, the payload, and a trailing CRC-32 (IEEE) of
// everything before it.
func encodeObject(kind byte, key string, payload []byte) []byte {
	var b bytes.Buffer
	b.Grow(len(key) + len(payload) + 32)
	b.WriteString(magic)
	b.WriteByte(version)
	b.WriteByte(kind)
	putU32(&b, uint32(len(key)))
	b.WriteString(key)
	putU32(&b, uint32(len(payload)))
	b.Write(payload)
	putU32(&b, crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

// decodeObject verifies the frame and returns the payload.
func decodeObject(data []byte, kind byte, key string) ([]byte, error) {
	r := reader{data: data}
	if string(r.bytes(4)) != magic {
		return nil, fmt.Errorf("store: bad magic")
	}
	if v := r.u8(); v != version {
		return nil, fmt.Errorf("store: entry version %d (want %d)", v, version)
	}
	if k := r.u8(); k != kind {
		return nil, fmt.Errorf("store: entry kind %d (want %d)", k, kind)
	}
	if got := string(r.bytes(int(r.u32()))); got != key {
		return nil, fmt.Errorf("store: key mismatch (hash collision or truncated entry)")
	}
	payload := r.bytes(int(r.u32()))
	sumPos := r.pos
	if r.failed || sumPos+4 != len(data) {
		return nil, fmt.Errorf("store: truncated entry")
	}
	want := binary.LittleEndian.Uint32(data[sumPos:])
	if crc32.ChecksumIEEE(data[:sumPos]) != want {
		return nil, fmt.Errorf("store: checksum mismatch")
	}
	return payload, nil
}

// reader is a bounds-checked byte cursor; any overrun flips failed and
// every later read returns zero values.
type reader struct {
	data   []byte
	pos    int
	failed bool
}

func (r *reader) bytes(n int) []byte {
	if r.failed || n < 0 || r.pos+n > len(r.data) {
		r.failed = true
		return nil
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *reader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) f64() float64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func encodeTrace(b *bytes.Buffer, tr trace.Trace) {
	if tr.Initial {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	putU32(b, uint32(len(tr.Events)))
	for _, e := range tr.Events {
		putF64(b, e.Time)
		if e.Value {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	}
}

func decodeTrace(r *reader) (trace.Trace, error) {
	var tr trace.Trace
	tr.Initial = r.u8() != 0
	n := int(r.u32())
	if r.failed || n < 0 || n > (len(r.data)-r.pos)/9 {
		return tr, fmt.Errorf("store: invalid event count")
	}
	if n > 0 {
		tr.Events = make([]trace.Event, n)
		for i := range tr.Events {
			tr.Events[i] = trace.Event{Time: r.f64(), Value: r.u8() != 0}
			if t := tr.Events[i].Time; math.IsNaN(t) || math.IsInf(t, 0) {
				return tr, fmt.Errorf("store: non-finite event time")
			}
		}
	}
	if r.failed {
		return tr, fmt.Errorf("store: truncated trace")
	}
	return tr, nil
}

// decodeTracePayload decodes a kindTrace payload.
func decodeTracePayload(payload []byte) (trace.Trace, error) {
	r := &reader{data: payload}
	tr, err := decodeTrace(r)
	if err == nil && r.pos != len(payload) {
		err = fmt.Errorf("store: trailing bytes after trace")
	}
	return tr, err
}

// decodeSetPayload decodes a kindSet payload.
func decodeSetPayload(payload []byte) (map[string]trace.Trace, error) {
	r := &reader{data: payload}
	n := int(r.u32())
	if r.failed || n < 0 || n > len(payload) {
		return nil, fmt.Errorf("store: invalid set size")
	}
	out := make(map[string]trace.Trace, n)
	for i := 0; i < n; i++ {
		name := string(r.bytes(int(r.u32())))
		tr, err := decodeTrace(r)
		if err != nil {
			return nil, err
		}
		out[name] = tr
	}
	if r.failed || r.pos != len(payload) {
		return nil, fmt.Errorf("store: malformed set")
	}
	return out, nil
}

// pointFloats lists every float64 of a prepared operating point except
// the arcs, in payload order: the pair characteristic, then the two
// NOR-frame fits.
func pointFloats(f *gate.Fitted) []*float64 {
	c := &f.Meas.Pair
	out := []*float64{&c.FallMinusInf, &c.FallZero, &c.FallPlusInf, &c.RiseMinusInf, &c.RiseZero, &c.RisePlusInf}
	for _, p := range []*hybrid.Params{&f.HM, &f.HMNoDMin} {
		out = append(out, &p.R1, &p.R2, &p.R3, &p.R4, &p.CN, &p.CO, &p.Supply.VDD, &p.Supply.Vth, &p.DMin)
	}
	return out
}

// encodePoint renders a kindPoint payload: the pointFloats, then the
// arc count and each arc's fall and rise delay.
func encodePoint(f gate.Fitted) []byte {
	var b bytes.Buffer
	for _, v := range pointFloats(&f) {
		putF64(&b, *v)
	}
	putU32(&b, uint32(len(f.Meas.Arcs)))
	for _, a := range f.Meas.Arcs {
		putF64(&b, a.Fall)
		putF64(&b, a.Rise)
	}
	return b.Bytes()
}

// decodePointPayload decodes a kindPoint payload. Every number must be
// finite; gate.Assemble then applies the same checks as to a fresh fit.
func decodePointPayload(payload []byte) (gate.Fitted, error) {
	var f gate.Fitted
	r := &reader{data: payload}
	vals := pointFloats(&f)
	for _, v := range vals {
		*v = r.f64()
	}
	n := int(r.u32())
	if r.failed || n < 0 || n > (len(payload)-r.pos)/16 {
		return gate.Fitted{}, fmt.Errorf("store: invalid arc count")
	}
	f.Meas.Arcs = make(inertial.Arcs, n)
	for i := range f.Meas.Arcs {
		a := &f.Meas.Arcs[i]
		a.Fall, a.Rise = r.f64(), r.f64()
		vals = append(vals, &a.Fall, &a.Rise)
	}
	if r.failed || r.pos != len(payload) {
		return gate.Fitted{}, fmt.Errorf("store: malformed operating point")
	}
	for _, v := range vals {
		if math.IsNaN(*v) || math.IsInf(*v, 0) {
			return gate.Fitted{}, fmt.Errorf("store: non-finite operating-point value")
		}
	}
	return f, nil
}

// ---------------------------------------------------------------------
// eval.PersistentStore

// load reads one object and decodes it with decode; the bool reports a
// valid entry. A missing file is a counted miss; a frame or payload
// that fails verification (torn write, corruption, wrong kind, hash
// collision) is a counted soft miss — the cache recomputes and the
// rewrite replaces the bad entry.
func load[T any](s *Store, kind byte, key string, decode func([]byte) (T, error)) (T, bool) {
	var zero T
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.count(&s.stats.Misses)
		return zero, false
	}
	payload, err := decodeObject(data, kind, key)
	if err != nil {
		s.count(&s.stats.Corrupt)
		return zero, false
	}
	v, err := decode(payload)
	if err != nil {
		s.count(&s.stats.Corrupt)
		return zero, false
	}
	s.count(&s.stats.Hits)
	return v, true
}

// count bumps one traffic counter.
func (s *Store) count(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

// Load implements eval.PersistentStore for single traces.
func (s *Store) Load(k eval.GoldenKey) (trace.Trace, bool, error) {
	tr, ok := load(s, kindTrace, keyString(kindTrace, k), decodeTracePayload)
	return tr, ok, nil
}

// Save implements eval.PersistentStore for single traces. The write is
// asynchronous; use Flush to wait for it.
func (s *Store) Save(k eval.GoldenKey, tr trace.Trace) error {
	key := keyString(kindTrace, k)
	var payload bytes.Buffer
	encodeTrace(&payload, tr)
	return s.enqueue(writeReq{path: s.path(key), data: encodeObject(kindTrace, key, payload.Bytes())})
}

// LoadSet implements eval.PersistentStore for circuit trace sets.
func (s *Store) LoadSet(k eval.GoldenKey) (map[string]trace.Trace, bool, error) {
	set, ok := load(s, kindSet, keyString(kindSet, k), decodeSetPayload)
	return set, ok, nil
}

// SaveSet implements eval.PersistentStore for circuit trace sets. Nets
// are serialized in sorted-name order, so identical sets encode to
// identical bytes.
func (s *Store) SaveSet(k eval.GoldenKey, set map[string]trace.Trace) error {
	key := keyString(kindSet, k)
	return s.enqueue(writeReq{path: s.path(key), data: encodeObject(kindSet, key, encodeSet(set))})
}

// encodeSet renders a kindSet payload: the net count, then each net's
// name and trace in sorted-name order.
func encodeSet(set map[string]trace.Trace) []byte {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	var payload bytes.Buffer
	putU32(&payload, uint32(len(names)))
	for _, name := range names {
		putU32(&payload, uint32(len(name)))
		payload.WriteString(name)
		encodeTrace(&payload, set[name])
	}
	return payload.Bytes()
}

// LoadPoint implements eval.PointStore: the prepared operating point
// persisted under k, if a valid entry exists.
func (s *Store) LoadPoint(k eval.ParamKey) (gate.Fitted, bool, error) {
	f, ok := load(s, kindPoint, pointKeyString(k), decodePointPayload)
	return f, ok, nil
}

// SavePoint implements eval.PointStore. The write is asynchronous; use
// Flush to wait for it.
func (s *Store) SavePoint(k eval.ParamKey, f gate.Fitted) error {
	key := pointKeyString(k)
	return s.enqueue(writeReq{path: s.path(key), data: encodeObject(kindPoint, key, encodePoint(f))})
}
