package trace

// The replay store records each (benchmark, instruction budget) stream
// exactly once and hands every later simulation a zero-allocation replay
// cursor over the compact isa.Replay encoding. Every figure, sweep, and
// driserve request re-runs the same fifteen benchmarks across dozens of
// cache/policy configurations; regenerating the stream per run pays the
// full per-instruction PRNG and generator branching every time, where a
// replay decode costs a fraction of that — the record-once/replay-many
// principle of way memoization applied to the simulation harness itself.
//
// The store is concurrency-safe and single-flight (concurrent requests for
// the same stream block on one recording), and holds recordings under a
// byte budget with least-recently-used eviction. Streams estimated above a
// quarter of the budget bypass the store and fall back to the generator,
// so a few outsized requests cannot churn the whole working set out of
// cache (watch the Evictions/Bypasses counters and raise the budget if
// legitimate traffic trips either).

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"

	"dricache/internal/isa"
	"dricache/internal/persist"
)

// DefaultStoreBudget is the shared store's default byte budget: enough for
// the full fifteen-benchmark suite at the cmd tools' 4M-instruction scale
// (~5 bytes/instruction ≈ 20 MB per benchmark) with headroom for mixed
// budgets.
const DefaultStoreBudget = 512 << 20

// estBytesPerInstr is the conservative sizing estimate used to decide, up
// front, whether a requested stream could ever fit the budget. Real
// recordings land near 5 bytes/instruction.
const estBytesPerInstr = 8

// StoreStats is a snapshot of a Store's counters.
type StoreStats struct {
	// Entries is the number of recorded streams currently held.
	Entries int
	// Bytes is their total encoded size; BudgetBytes the eviction limit.
	Bytes       int64
	BudgetBytes int64
	// Hits counts requests served from a completed recording (including
	// requests that joined a recording already in flight).
	Hits uint64
	// Misses counts requests that recorded a stream.
	Misses uint64
	// Evictions counts recordings dropped to respect the byte budget.
	Evictions uint64
	// Bypasses counts requests that skipped the store because the estimated
	// recording could not fit the budget.
	Bypasses uint64
	// PersistHits counts hits served by decoding a persisted recording
	// instead of regenerating the stream (a subset of Hits).
	PersistHits uint64
}

// HitRate is the fraction of non-bypass requests served without recording.
func (s StoreStats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// storeKey identifies one recorded stream: a canonical hash of the full
// program definition (name, seed, phases) and the instruction budget. Two
// requests collide exactly when they would generate the identical stream.
type storeKey [sha256.Size]byte

func keyFor(p Program, totalInstrs uint64) storeKey {
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(p); err != nil {
		panic(fmt.Sprintf("trace: encoding Program: %v", err))
	}
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], totalInstrs)
	h.Write(n[:])
	var key storeKey
	h.Sum(key[:0])
	return key
}

// storeEntry is one recording. done is closed when rep is populated (nil if
// the recording was abandoned); waiters block on it without holding the
// store lock. cancelled, set before done is closed, marks a recording
// abandoned because its recorder's context was cancelled.
type storeEntry struct {
	key       storeKey
	done      chan struct{}
	rep       *isa.Replay
	cancelled bool
	// elem is the entry's position in the LRU list once completed.
	elem *list.Element
}

// Store is a concurrency-safe, single-flight, byte-budgeted cache of
// recorded instruction streams. The zero value is not usable; construct
// with NewStore. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[storeKey]*storeEntry
	// lru orders completed entries most-recently-used first.
	lru       *list.List
	hits      uint64
	misses    uint64
	evictions uint64
	bypasses  uint64
	// persist, when non-nil, is the disk layer consulted on replay misses
	// and written back on fresh recordings (see persist.go).
	persist     *persist.Store
	persistHits uint64
}

// NewStore returns a store evicting least-recently-used recordings beyond
// budgetBytes. A budget <= 0 disables recording entirely: every request
// bypasses to the generator.
func NewStore(budgetBytes int64) *Store {
	return &Store{
		budget:  budgetBytes,
		entries: make(map[storeKey]*storeEntry),
		lru:     list.New(),
	}
}

// shared is the process-wide store used by sim.Run via StreamFor.
var shared = NewStore(DefaultStoreBudget)

// SharedStore returns the process-wide replay store.
func SharedStore() *Store { return shared }

// StreamFor returns a replay stream of exactly totalInstrs dynamic
// instructions of p from the shared store, identical instruction for
// instruction to p.Stream(totalInstrs). Like Stream, it panics on an
// invalid program.
func StreamFor(p Program, totalInstrs uint64) isa.Stream {
	return shared.Stream(p, totalInstrs)
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:     s.lru.Len(),
		Bytes:       s.bytes,
		BudgetBytes: s.budget,
		Hits:        s.hits,
		Misses:      s.misses,
		Evictions:   s.evictions,
		Bypasses:    s.bypasses,
		PersistHits: s.persistHits,
	}
}

// SetBudget changes the byte budget, evicting immediately if the new budget
// is exceeded. A budget <= 0 disables recording and drops every completed
// entry.
func (s *Store) SetBudget(budgetBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = budgetBytes
	s.evictLocked()
}

// Reset drops every completed recording (in-flight recordings finish and
// are then subject to the budget as usual) and leaves the counters intact.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for elem := s.lru.Front(); elem != nil; elem = elem.Next() {
		ent := elem.Value.(*storeEntry)
		delete(s.entries, ent.key)
		s.bytes -= int64(ent.rep.Bytes())
	}
	s.lru.Init()
}

// evictLocked drops least-recently-used completed entries until the budget
// holds. In-flight recordings are never evicted (they are not in the LRU).
func (s *Store) evictLocked() {
	for s.bytes > s.budget && s.lru.Len() > 0 {
		ent := s.lru.Remove(s.lru.Back()).(*storeEntry)
		delete(s.entries, ent.key)
		s.bytes -= int64(ent.rep.Bytes())
		s.evictions++
	}
}

// Stream returns a stream of exactly totalInstrs dynamic instructions of p,
// replayed from a recording when the store holds (or can hold) one and
// generated directly otherwise. The replayed stream is identical,
// instruction for instruction, to p.Stream(totalInstrs). Like Stream on
// Program, it panics on an invalid program definition.
func (s *Store) Stream(p Program, totalInstrs uint64) isa.Stream {
	if err := p.Check(); err != nil {
		panic(err)
	}
	if rep, _ := s.replay(context.Background(), p, totalInstrs); rep != nil {
		cur := rep.Cursor()
		return &cur
	}
	return p.Stream(totalInstrs)
}

// Replay returns the recorded encoding of (p, totalInstrs), recording it
// now if absent, or nil when the stream bypasses the store (budget too
// small). The returned Replay is shared and immutable.
func (s *Store) Replay(p Program, totalInstrs uint64) *isa.Replay {
	rep, _ := s.ReplayCtx(context.Background(), p, totalInstrs)
	return rep
}

// ReplayCtx is Replay under a context. A recording it makes checks ctx
// every few thousand instructions and, on cancellation, is abandoned: the
// store keeps no entry, and a request waiting on it whose own context is
// live records the stream itself. When ctx is cancelled — while recording
// or while waiting on another request's recording — ReplayCtx returns nil
// and the context's cause.
func (s *Store) ReplayCtx(ctx context.Context, p Program, totalInstrs uint64) (*isa.Replay, error) {
	if err := p.Check(); err != nil {
		panic(err)
	}
	return s.replay(ctx, p, totalInstrs)
}

// admitDivisor bounds a single recording to this fraction of the budget:
// admitting near-budget-sized streams would let a handful of outsized
// requests continually evict each other's (and everyone else's) entries,
// paying record cost on every run with zero reuse — strictly worse than
// not recording at all. Streams above budget/admitDivisor bypass to the
// generator instead.
const admitDivisor = 4

func (s *Store) replay(ctx context.Context, p Program, totalInstrs uint64) (*isa.Replay, error) {
	key := keyFor(p, totalInstrs)
	s.mu.Lock()
	// Completed (or in-flight) recordings are served regardless of the
	// admission estimate; only new recordings are size-gated.
	for {
		ent, ok := s.entries[key]
		if !ok {
			break
		}
		s.hits++
		if ent.elem != nil {
			s.lru.MoveToFront(ent.elem)
		}
		s.mu.Unlock()
		select {
		case <-ent.done:
		case <-ctx.Done():
			s.mu.Lock()
			s.hits--
			s.mu.Unlock()
			return nil, context.Cause(ctx)
		}
		if !ent.cancelled {
			// rep is nil only if the recording was abandoned (inexact
			// encoding or a panic); the entry was removed, so callers simply
			// fall back this once.
			return ent.rep, nil
		}
		// Its recorder gave up, but this request still wants the stream:
		// claim a fresh recording (or join whoever claimed it first).
		s.mu.Lock()
		s.hits--
	}
	if s.budget <= 0 || int64(totalInstrs)*estBytesPerInstr > s.budget/admitDivisor {
		s.bypasses++
		s.mu.Unlock()
		return nil, nil
	}
	ent := &storeEntry{key: key, done: make(chan struct{})}
	s.entries[key] = ent
	s.misses++
	s.mu.Unlock()

	// Record outside the lock; concurrent requests for the same stream are
	// waiting on ent.done, requests for other streams proceed unhindered.
	// On a generator panic (impossible after Check, but be safe) or a
	// cancellation the entry is abandoned so later requests retry.
	completed := false
	defer func() {
		if !completed {
			s.mu.Lock()
			delete(s.entries, key)
			s.mu.Unlock()
			close(ent.done)
		}
	}()

	// Second-level cache: a persisted recording (same content address)
	// skips the generator pass entirely. The claim counted as a miss;
	// reclassify it as a (persist) hit.
	if rep := s.loadPersisted(key, totalInstrs); rep != nil {
		completed = true
		s.mu.Lock()
		s.misses--
		s.hits++
		s.persistHits++
		ent.rep = rep
		ent.elem = s.lru.PushFront(ent)
		s.bytes += int64(rep.Bytes())
		s.evictLocked()
		s.mu.Unlock()
		close(ent.done)
		return rep, nil
	}

	rep, exact, err := isa.RecordStreamCtx(ctx, p.Stream(totalInstrs), totalInstrs)
	if err != nil {
		ent.cancelled = true
		return nil, err
	}
	if !exact {
		// The generator emitted something outside the encoding envelope;
		// do not serve (or cache) a lossy recording.
		return nil, nil
	}
	completed = true

	s.mu.Lock()
	ent.rep = rep
	ent.elem = s.lru.PushFront(ent)
	s.bytes += int64(rep.Bytes())
	s.evictLocked()
	s.mu.Unlock()
	close(ent.done)
	s.storePersisted(key, rep)
	return rep, nil
}
