// Package diskstore is the persistent tier beneath the in-memory result
// caches: a disk-backed, content-addressed store that survives restarts,
// so a redeployed or crashed daemon warms up from bytes it already paid
// engine time for instead of re-simulating the world.
//
// Shape of the design:
//
//   - Entries are immutable (key, engine-version, cost, body) records,
//     one checksummed frame each (see frame.go), appended to segment
//     files ("seg-00000012.seg"). Segments are append-only while active
//     and sealed at a size threshold; nothing is ever updated in place,
//     so a crash can only tear the tail of the newest segment.
//   - Put is write-behind: the serving path enqueues onto a bounded
//     channel and returns; a single background flusher appends frames in
//     batches. When the queue is full the Put is dropped and counted —
//     the disk tier degrades to a smaller cache, never to backpressure
//     on the serving path.
//   - Get is read-through material for the tier above: a hit re-verifies
//     the frame's CRC before returning bytes, so disk corruption degrades
//     to a miss (and the entry is dropped), never to wrong bytes.
//   - Open scans every segment, recovering all valid frames and skipping
//     or truncating torn and corrupt ones; a damaged store always boots.
//   - Eviction is cost-aware, not LRU: when the disk budget is exceeded,
//     entries with the lowest exec-nanoseconds-per-byte go first, so a
//     cell that cost two seconds of engine time outlives an equal-sized
//     cheap one. Evicting marks frames dead; fully-dead segments are
//     deleted and mostly-dead ones compacted (live frames re-appended)
//     to actually return the bytes.
//
// Because keys are content addresses (internal/resultcache.Key folds the
// campaign kind, canonical params, and engine version into a SHA-256),
// a disk hit is indistinguishable from a fresh run, and duplicate frames
// for one key are byte-identical by construction.
package diskstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Options parameterizes a Store. Zero values select the defaults noted
// on each field.
type Options struct {
	// Budget bounds total on-disk bytes across all segments (<= 0: no
	// bound). Exceeding it triggers a cost-aware eviction pass on the
	// flusher goroutine.
	Budget int64
	// SegmentBytes is the active-segment size at which it is sealed and
	// a new one started (default 64 MiB).
	SegmentBytes int64
	// QueueDepth bounds the write-behind queue (default 256 Puts).
	QueueDepth int
	// SyncEach fsyncs the active segment after every flushed batch.
	// Default off: the contract is then flush-to-filesystem on every
	// batch and fsync at Sync/Close (graceful drain), which loses at
	// most the unflushed queue on a machine crash and nothing on a
	// process crash.
	SyncEach bool
	// EngineVersion is recorded in every frame written by this store
	// (forensic metadata; the key already folds it into the address).
	EngineVersion string
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Hits           uint64 // Gets served from a verified frame
	Misses         uint64 // Gets that found no (valid) entry
	Puts           uint64 // Puts accepted onto the write-behind queue
	Dropped        uint64 // Puts dropped because the queue was full
	FlushedFrames  uint64 // frames durably appended by the flusher
	Evictions      uint64 // entries evicted by the byte budget
	CorruptFrames  uint64 // frames rejected by CRC/header checks (scan or Get)
	DupFrames      uint64 // duplicate-key frames skipped (scan or flush)
	TruncatedBytes uint64 // bytes cut from segment tails by the scan
	Entries        int    // live entries in the index
	Segments       int    // segment files on disk
	DiskBytes      int64  // total segment bytes on disk (live + dead)
	LiveBytes      int64  // bytes of frames still reachable via the index
	CostNs         uint64 // total exec-nanos of live entries
	Budget         int64  // configured disk budget
	QueueDepth     int    // write-behind queue occupancy right now
}

// segment is one on-disk file of frames.
type segment struct {
	id        uint64
	path      string
	f         *os.File
	size      int64 // bytes on disk
	live      int64 // bytes of index-reachable frames
	liveCount int
}

// entryRef locates one live entry inside a segment.
type entryRef struct {
	seg     *segment
	off     int64 // frame start
	n       int64 // full frame length
	bodyOff int64 // body start (absolute file offset)
	bodyLen int
	execNs  uint64
}

// putReq is one write-behind queue item. A nil-key request with a non-nil
// ack is a sync barrier: the flusher writes everything queued before it,
// fsyncs the active segment, and closes ack.
type putReq struct {
	key    string
	body   []byte
	execNs uint64
	ack    chan struct{}
}

// Store is a disk-backed content-addressed cache. All methods are safe
// for concurrent use.
type Store struct {
	dir string
	opt Options

	queue chan putReq
	done  chan struct{}
	wg    sync.WaitGroup

	// closeMu orders Put/Sync enqueues against Close: writers hold the
	// read side across the closed-check and the channel send, Close holds
	// the write side while flipping closed. Without it a Put could pass
	// the check, lose the CPU while Close signals the flusher, and land
	// its request in the queue after the final drain — an accepted
	// (true-returning) Put that never reaches disk.
	closeMu sync.RWMutex
	closed  atomic.Bool

	mu        sync.Mutex
	index     map[string]entryRef
	segs      []*segment // ascending id; last may be the active one
	active    *segment
	nextID    uint64
	diskBytes int64
	liveBytes int64
	liveCost  uint64

	hits, misses, puts, dropped   atomic.Uint64
	flushed, evictions            atomic.Uint64
	corrupt, dups, truncatedBytes atomic.Uint64

	// flusher-owned scratch: the frame encode buffer and the batch slice,
	// reused across batches so steady-state flushing does not allocate.
	scratch []byte
	batch   []putReq
}

// Open loads (or creates) the store rooted at dir. Every segment is
// scanned: valid frames are indexed, corrupt frames skipped, and torn or
// unframeable tails truncated — recovery never fails the boot. Only real
// I/O errors (unreadable directory, untruncatable file) are returned.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:   dir,
		opt:   opt,
		queue: make(chan putReq, opt.QueueDepth),
		done:  make(chan struct{}),
		index: make(map[string]entryRef),
		batch: make([]putReq, 0, 64),
	}
	if err := s.scanDir(); err != nil {
		s.closeFilesLocked()
		return nil, err
	}
	if err := s.rotateLocked(); err != nil {
		s.closeFilesLocked()
		return nil, err
	}
	s.wg.Add(1)
	go s.flusher()
	return s, nil
}

// scanDir loads every existing segment in id order. Called from Open only
// (no lock needed yet, but the *Locked helpers it shares with the flusher
// expect s.mu conventions, so it is documented as holding the lock).
func (s *Store) scanDir() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	type cand struct {
		id   uint64
		path string
	}
	var cands []cand
	for _, path := range names {
		base := filepath.Base(path)
		var id uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(base, ".seg"), "seg-%d", &id); err != nil {
			continue // not ours; leave it alone
		}
		cands = append(cands, cand{id, path})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].id < cands[j].id })
	var buf []byte // one scan window, reused across segments
	for _, c := range cands {
		if err := s.scanSegment(c.id, c.path, &buf); err != nil {
			return err
		}
		if c.id >= s.nextID {
			s.nextID = c.id + 1
		}
	}
	return nil
}

// scanWindow is the size of the buffer Open reads segments through. A
// frame larger than the window grows the buffer to fit it, and only once
// the file is known to hold the whole frame.
const scanWindow = 1 << 20

// window reads a file forward through one reused buffer, which holds the
// file's bytes from offset start.
type window struct {
	f     *os.File
	size  int64
	buf   []byte
	start int64
}

// at returns the file's bytes from off to the end of the buffer, first
// reading from off when fewer than need bytes (or the rest of the file,
// if shorter) are buffered there.
func (w *window) at(off int64, need int) ([]byte, error) {
	need = int(min(int64(need), w.size-off))
	if off >= w.start && off+int64(need) <= w.start+int64(len(w.buf)) {
		return w.buf[off-w.start:], nil
	}
	if cap(w.buf) < need {
		w.buf = make([]byte, max(need, scanWindow))
	}
	w.buf = w.buf[:min(int64(cap(w.buf)), w.size-off)]
	w.start = off
	if _, err := w.f.ReadAt(w.buf, off); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// scanSegment recovers one segment file: every valid frame is indexed
// (first occurrence of a key wins — duplicates are byte-identical by
// content addressing), checksum-failed frames are skipped as dead bytes,
// and the file is truncated at the first torn or unframeable offset.
// Empty-after-truncation segments are deleted. The file is read through
// the window buffer *buf, which the scan may grow and leaves for the next
// segment.
func (s *Store) scanSegment(id uint64, path string, buf *[]byte) error {
	file, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	fi, err := file.Stat()
	if err != nil {
		file.Close()
		return fmt.Errorf("diskstore: %w", err)
	}
	w := window{f: file, size: fi.Size(), buf: (*buf)[:0]}
	defer func() { *buf = w.buf }()
	seg := &segment{id: id, path: path, size: w.size}
	off := int64(0)
scan:
	for off < w.size {
		data, err := w.at(off, headerLen)
		if err == nil {
			// A frame past the buffer's end is read whole, but only if
			// the file holds all the bytes its header claims.
			if n, herr := frameLen(data); herr == nil && n > len(data) && int64(n) <= w.size-off {
				data, err = w.at(off, n)
			}
		}
		if err != nil {
			file.Close()
			return fmt.Errorf("diskstore: reading %s: %w", path, err)
		}
		f, n, err := decodeFrame(data)
		switch err {
		case nil:
			ref := entryRef{
				seg:     seg,
				off:     off,
				n:       int64(n),
				bodyOff: off + int64(headerLen+len(f.key)+len(f.engine)),
				bodyLen: len(f.body),
				execNs:  f.execNs,
			}
			if _, dup := s.index[f.key]; dup {
				s.dups.Add(1) // dead bytes: earlier copy already indexed
			} else {
				s.index[f.key] = ref
				seg.live += int64(n)
				seg.liveCount++
				s.liveBytes += int64(n)
				s.liveCost += f.execNs
			}
			off += int64(n)
		case errChecksum:
			// Framing plausible, payload rotten: step over the dead frame
			// and keep recovering what follows.
			s.corrupt.Add(1)
			off += int64(n)
		default: // errTorn, errCorrupt
			if err == errCorrupt {
				s.corrupt.Add(1)
			}
			s.truncatedBytes.Add(uint64(w.size - off))
			if terr := file.Truncate(off); terr != nil {
				file.Close()
				return fmt.Errorf("diskstore: truncating %s: %w", path, terr)
			}
			seg.size = off
			break scan
		}
	}
	if seg.size == 0 {
		file.Close()
		os.Remove(path)
		return nil
	}
	seg.f = file
	s.segs = append(s.segs, seg)
	s.diskBytes += seg.size
	return nil
}

// Get returns the body and exec cost stored under key. The frame is
// CRC-verified on every read: a failed check drops the entry and reports
// a miss, so corruption never becomes served bytes. The returned slice is
// freshly read from disk and owned by the caller's tier (treat as
// immutable once promoted).
func (s *Store) Get(key string) (body []byte, execNs uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, found := s.index[key]
	if !found || s.closed.Load() {
		s.misses.Add(1)
		return nil, 0, false
	}
	buf := make([]byte, ref.n)
	if _, err := ref.seg.f.ReadAt(buf, ref.off); err != nil {
		s.corrupt.Add(1)
		s.dropEntryLocked(key, ref)
		s.misses.Add(1)
		return nil, 0, false
	}
	f, _, err := decodeFrame(buf)
	if err != nil || f.key != key {
		s.corrupt.Add(1)
		s.dropEntryLocked(key, ref)
		s.misses.Add(1)
		return nil, 0, false
	}
	s.hits.Add(1)
	return f.body, ref.execNs, true
}

// Contains reports whether key is currently indexed, without touching the
// disk or the hit/miss counters.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// Put enqueues (key, body, execNs) for write-behind persistence and
// reports whether it was accepted. It never blocks: a full queue drops
// the Put with a metric (the disk tier shrinks; the serving path does not
// slow down). An accepted Put is durable once the queue is flushed —
// Sync and Close both guarantee that. body must not be mutated afterwards
// (the store shares the caller's immutable cache bytes until flushed).
func (s *Store) Put(key string, body []byte, execNs uint64) bool {
	if len(key) == 0 || len(key) > maxKeyLen || len(body) == 0 || len(body) > maxBodyLen {
		s.dropped.Add(1)
		return false
	}
	if n := frameSize(len(key), len(s.opt.EngineVersion), len(body)); s.opt.Budget > 0 && n > s.opt.Budget {
		s.dropped.Add(1)
		return false
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed.Load() {
		s.dropped.Add(1)
		return false
	}
	select {
	case s.queue <- putReq{key: key, body: body, execNs: execNs}:
		s.puts.Add(1)
		return true
	default:
		s.dropped.Add(1)
		return false
	}
}

// Sync flushes everything enqueued before the call and fsyncs the active
// segment, bounded by ctx. A closed store is already flushed and returns
// nil.
func (s *Store) Sync(ctx context.Context) error {
	s.closeMu.RLock()
	if s.closed.Load() {
		s.closeMu.RUnlock()
		return nil
	}
	ack := make(chan struct{})
	select {
	case s.queue <- putReq{ack: ack}:
		s.closeMu.RUnlock()
	case <-s.done:
		s.closeMu.RUnlock()
		return nil // Close is draining; it flushes and fsyncs everything
	case <-ctx.Done():
		s.closeMu.RUnlock()
		return fmt.Errorf("diskstore: sync interrupted: %w", ctx.Err())
	}
	select {
	case <-ack:
		return nil
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("diskstore: sync interrupted: %w", ctx.Err())
	}
}

// Close drains the write-behind queue, fsyncs the active segment, stops
// the flusher, and closes every segment file. Every Put accepted before
// Close is on disk when it returns. Safe to call more than once.
func (s *Store) Close() error {
	// Take the write side so every in-flight Put/Sync has either finished
	// its enqueue or will observe closed — only then signal the flusher,
	// whose final drain is thereby guaranteed to see every accepted
	// request.
	s.closeMu.Lock()
	already := s.closed.Swap(true)
	s.closeMu.Unlock()
	if already {
		return nil
	}
	close(s.done)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeFilesLocked()
	return nil
}

func (s *Store) closeFilesLocked() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
		}
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		Dropped:        s.dropped.Load(),
		FlushedFrames:  s.flushed.Load(),
		Evictions:      s.evictions.Load(),
		CorruptFrames:  s.corrupt.Load(),
		DupFrames:      s.dups.Load(),
		TruncatedBytes: s.truncatedBytes.Load(),
		Entries:        len(s.index),
		Segments:       len(s.segs),
		DiskBytes:      s.diskBytes,
		LiveBytes:      s.liveBytes,
		CostNs:         s.liveCost,
		Budget:         s.opt.Budget,
		QueueDepth:     len(s.queue),
	}
}

// flusher is the single background writer: it drains the queue in
// batches, appends frames, honors sync barriers, and runs the eviction
// pass when the budget is exceeded. On shutdown it drains whatever is
// left and fsyncs, making Close's durability guarantee.
func (s *Store) flusher() {
	defer s.wg.Done()
	for {
		select {
		case req := <-s.queue:
			s.flushBatch(req)
		case <-s.done:
			for {
				select {
				case req := <-s.queue:
					s.flushBatch(req)
				default:
					s.mu.Lock()
					if s.active != nil && s.active.f != nil {
						s.active.f.Sync()
					}
					s.mu.Unlock()
					return
				}
			}
		}
	}
}

// flushBatch writes first plus everything else currently queued as one
// locked batch: one lock acquisition, sequential appends, at most one
// fsync.
func (s *Store) flushBatch(first putReq) {
	batch := append(s.batch[:0], first)
fill:
	for len(batch) < cap(batch) {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
		default:
			break fill
		}
	}
	s.batch = batch

	var acks []chan struct{}
	needSync := s.opt.SyncEach
	s.mu.Lock()
	for i := range batch {
		r := &batch[i]
		if r.ack != nil {
			acks = append(acks, r.ack)
			needSync = true
			continue
		}
		s.writeLocked(r.key, r.body, r.execNs)
		r.body = nil // release the cache bytes the queue was pinning
	}
	if needSync && s.active != nil && s.active.f != nil {
		s.active.f.Sync()
	}
	if s.opt.Budget > 0 && s.diskBytes > s.opt.Budget {
		s.evictLocked()
	}
	s.mu.Unlock()
	for _, ack := range acks {
		close(ack)
	}
}

// writeLocked appends one entry's frame to the active segment and indexes
// it. Duplicate keys are skipped (content addressing makes the bytes
// identical). Callers hold s.mu.
func (s *Store) writeLocked(key string, body []byte, execNs uint64) {
	if _, dup := s.index[key]; dup {
		s.dups.Add(1)
		return
	}
	f := frame{key: key, engine: s.opt.EngineVersion, execNs: execNs, body: body}
	n := frameSize(len(key), len(f.engine), len(body))
	if s.active == nil || (s.active.size > 0 && s.active.size+n > s.opt.SegmentBytes) {
		if err := s.rotateLocked(); err != nil {
			s.dropped.Add(1)
			return
		}
	}
	s.scratch = appendFrame(s.scratch[:0], &f)
	seg := s.active
	wrote, err := seg.f.Write(s.scratch)
	if wrote > 0 {
		seg.size += int64(wrote)
		s.diskBytes += int64(wrote)
	}
	if err != nil || wrote != len(s.scratch) {
		// The tail of the active segment is now garbage; seal it so the
		// next frame starts a clean file. Boot-time scanning would
		// truncate the partial frame anyway.
		s.dropped.Add(1)
		s.rotateLocked()
		return
	}
	s.index[key] = entryRef{
		seg:     seg,
		off:     seg.size - n,
		n:       n,
		bodyOff: seg.size - n + int64(headerLen+len(key)+len(f.engine)),
		bodyLen: len(body),
		execNs:  execNs,
	}
	seg.live += n
	seg.liveCount++
	s.liveBytes += n
	s.liveCost += execNs
	s.flushed.Add(1)
}

// rotateLocked seals the current active segment (if any) and opens a new
// empty one. Callers hold s.mu.
func (s *Store) rotateLocked() error {
	id := s.nextID
	s.nextID++
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.seg", id))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		s.active = nil
		return fmt.Errorf("diskstore: %w", err)
	}
	seg := &segment{id: id, path: path, f: f}
	s.segs = append(s.segs, seg)
	s.active = seg
	return nil
}

// dropEntryLocked removes key from the index, turning its frame into dead
// bytes inside its segment. Callers hold s.mu.
func (s *Store) dropEntryLocked(key string, ref entryRef) {
	delete(s.index, key)
	ref.seg.live -= ref.n
	ref.seg.liveCount--
	s.liveBytes -= ref.n
	s.liveCost -= ref.execNs
}

// evictLocked enforces the disk budget in two phases. Phase one evicts
// entries in ascending exec-nanoseconds-per-byte — the shared eviction
// currency of both tiers — until the live bytes fit: expensive results
// outlive cheap ones of equal size, regardless of recency. Phase two
// returns the freed bytes to the filesystem: fully-dead segments are
// deleted outright, and while the on-disk total still exceeds the budget
// the deadest sealed segment is compacted (its live frames re-appended to
// the active segment) and removed. Callers hold s.mu.
func (s *Store) evictLocked() {
	if s.liveBytes > s.opt.Budget {
		type cand struct {
			key string
			ref entryRef
		}
		cands := make([]cand, 0, len(s.index))
		for k, r := range s.index {
			cands = append(cands, cand{k, r})
		}
		// Cheapest per byte first; ties broken by key so eviction order is
		// deterministic for tests and replayable from logs.
		sort.Slice(cands, func(i, j int) bool {
			vi := float64(cands[i].ref.execNs) / float64(cands[i].ref.n)
			vj := float64(cands[j].ref.execNs) / float64(cands[j].ref.n)
			if vi != vj {
				return vi < vj
			}
			return cands[i].key < cands[j].key
		})
		for _, c := range cands {
			if s.liveBytes <= s.opt.Budget {
				break
			}
			s.dropEntryLocked(c.key, c.ref)
			s.evictions.Add(1)
		}
	}
	// Delete segments with nothing live (never the active one).
	for i := 0; i < len(s.segs); {
		seg := s.segs[i]
		if seg != s.active && seg.liveCount == 0 {
			s.deleteSegLocked(i)
			continue
		}
		i++
	}
	// Compact until the disk total fits. liveBytes <= Budget already, so
	// squeezing dead bytes out of the deadest segments must converge.
	for s.diskBytes > s.opt.Budget {
		var victim *segment
		victimIdx := -1
		for i, seg := range s.segs {
			if seg == s.active {
				continue
			}
			if victim == nil || seg.size-seg.live > victim.size-victim.live {
				victim, victimIdx = seg, i
			}
		}
		if victim == nil || victim.size == victim.live {
			// Only the active segment holds dead bytes; seal it and let
			// the next iteration compact it.
			if s.active != nil && s.active.size > s.active.live {
				if s.rotateLocked() != nil {
					return
				}
				continue
			}
			return
		}
		s.compactLocked(victim, victimIdx)
	}
}

// compactLocked re-appends victim's live frames to the active segment and
// deletes the file. A frame that fails verification during the move is
// dropped (counted corrupt) rather than propagated. Callers hold s.mu.
func (s *Store) compactLocked(victim *segment, idx int) {
	type moved struct {
		key string
		ref entryRef
	}
	var entries []moved
	for k, r := range s.index {
		if r.seg == victim {
			entries = append(entries, moved{k, r})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ref.off < entries[j].ref.off })
	for _, e := range entries {
		buf := make([]byte, e.ref.n)
		if _, err := victim.f.ReadAt(buf, e.ref.off); err != nil {
			s.corrupt.Add(1)
			s.dropEntryLocked(e.key, e.ref)
			continue
		}
		f, _, err := decodeFrame(buf)
		if err != nil || f.key != e.key {
			s.corrupt.Add(1)
			s.dropEntryLocked(e.key, e.ref)
			continue
		}
		// Re-home the entry: account it out of the victim, append the raw
		// frame to the active segment, and repoint the index.
		s.dropEntryLocked(e.key, e.ref)
		s.writeLocked(e.key, f.body, e.ref.execNs)
	}
	s.deleteSegLocked(idx)
}

// deleteSegLocked closes and removes the segment at s.segs[idx]. Callers
// hold s.mu and guarantee it has no live entries.
func (s *Store) deleteSegLocked(idx int) {
	seg := s.segs[idx]
	if seg.f != nil {
		seg.f.Close()
	}
	os.Remove(seg.path)
	s.diskBytes -= seg.size
	s.segs = append(s.segs[:idx], s.segs[idx+1:]...)
}
