package similarity

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the memo layer for the SXNM hot path. Multi-pass
// sliding windows revisit the same element pairs (different keys sort
// similar elements near each other again), and dirty corpora repeat
// literal values (the same title typo planted many times), so both the
// Def. 2 per-value similarity calls and the Def. 3 cluster-ID overlaps
// recompute identical inputs. Cache memoizes them.
//
// Determinism is the contract: every similarity Func is pure, so a
// memo hit returns the exact float64 the Func would have produced —
// the same inputs ran through the same IEEE-754 operations. Operands
// are NOT swapped into a canonical order (a Func is not required to be
// float-exact under argument swap), so (a,b) and (b,a) are distinct
// entries. Engine results are therefore byte-identical with the cache
// on or off; only CPU time and the CacheStats counters change.

// DefaultCacheSize is the value-pair entry capacity used when a
// non-positive size is given to NewCache. Entries are (field, a, b) →
// float64; at typical OD value lengths this is a few MB per candidate.
const DefaultCacheSize = 1 << 16

// cacheShards spreads the value-pair map over independently locked
// shards so PairWorkers goroutines rarely contend. Must be a power of
// two.
const cacheShards = 16

// SetID names an interned descendant cluster-ID multiset. Two rows
// whose descendant lists intern to the same SetID have exactly equal
// multisets, so their Def. 3 overlap is 1 without any counting. The
// zero SetID is always the empty multiset.
type SetID int32

// CacheStats are the counters a Cache accumulates; the engine flushes
// them into obs metrics and the run report. They never feed back into
// core.Stats — detection statistics stay identical with caching on or
// off.
type CacheStats struct {
	Hits      int64 // value-pair or overlap results served from memory
	Misses    int64 // results computed and inserted
	Evictions int64 // entries dropped to respect the capacity bound
	DescSets  int64 // distinct descendant multisets interned
}

// Cache memoizes similarity computations for one candidate's detection
// passes. It is safe for concurrent use by the pair workers; all
// methods on a nil Cache compute directly and count nothing.
//
// Two layers:
//   - value-pair scores: an LRU-bounded map from (OD field, value a,
//     value b) to the field's similarity Func result;
//   - descendant sets: cluster-ID multisets interned to SetIDs
//     (InternDesc) with a bounded memo of pairwise overlaps, so the
//     Def. 3 comparison of two rows degenerates to integer ID checks.
type Cache struct {
	shards [cacheShards]valueShard
	desc   descStore

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	descSets  atomic.Int64
}

// NewCache returns a cache holding at most size value-pair entries
// (DefaultCacheSize when size <= 0), split evenly across shards. The
// overlap memo is bounded by the same size.
func NewCache(size int) *Cache {
	if size <= 0 {
		size = DefaultCacheSize
	}
	per := size / cacheShards
	if per < 4 {
		per = 4
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].init(per)
	}
	c.desc.init(size)
	// Reserve SetID 0 for the empty multiset so rows lacking a
	// descendant type compare against a well-known ID.
	if id := c.desc.intern(nil, &c.descSets); id != 0 {
		panic("similarity: empty descendant set not interned as SetID 0")
	}
	return c
}

// Stats returns the counters accumulated so far (zero for nil).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		DescSets:  c.descSets.Load(),
	}
}

// Score returns sim(a, b), memoized under (field, a, b). field
// identifies which similarity Func the values belong to (the OD field
// index), keeping entries of different Funcs apart. A nil Cache
// computes directly.
func (c *Cache) Score(field int, sim Func, a, b string) float64 {
	if c == nil {
		return sim(a, b)
	}
	sh := &c.shards[pairShard(field, a, b)&(cacheShards-1)]
	k := valueKey{field: int32(field), a: a, b: b}
	if v, ok := sh.get(k); ok {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	// Compute outside the shard lock: a concurrent duplicate compute is
	// benign (pure function, identical result) and far cheaper than
	// holding the lock across an edit-distance run.
	v := sim(a, b)
	c.evictions.Add(sh.put(k, v))
	return v
}

// Lookup returns the memoized score for (field, a, b) without
// computing on a miss — the probe the threshold-aware fast path uses
// before deciding between a banded and a full edit-distance run. A hit
// counts toward the hit statistics; a miss counts nothing (the miss is
// accounted by the Insert that follows a computation, and a cut-off
// banded run inserts nothing). Nil-safe: a nil Cache never hits.
func (c *Cache) Lookup(field int, a, b string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	sh := &c.shards[pairShard(field, a, b)&(cacheShards-1)]
	if v, ok := sh.get(valueKey{field: int32(field), a: a, b: b}); ok {
		c.hits.Add(1)
		return v, true
	}
	return 0, false
}

// Insert memoizes an externally computed score under (field, a, b).
// The caller must only ever insert the exact value the field's
// similarity Func would produce for (a, b) — the purity contract all
// memo hits rely on. The fast path satisfies it by inserting only
// within-band edit scores, which are bit-identical to NormalizedEdit;
// cut-off (upper-bound) results are never inserted. Nil-safe no-op.
func (c *Cache) Insert(field int, a, b string, v float64) {
	if c == nil {
		return
	}
	c.misses.Add(1)
	sh := &c.shards[pairShard(field, a, b)&(cacheShards-1)]
	c.evictions.Add(sh.put(valueKey{field: int32(field), a: a, b: b}, v))
}

// ODSimilarity is the memoized equivalent of the package-level
// ODSimilarity: identical field iteration, weighting, and best-match
// early exit, with each value-pair score routed through the cache. A
// nil Cache delegates to the uncached implementation.
func (c *Cache) ODSimilarity(fields []ODField, a, b [][]string) (float64, error) {
	if c == nil {
		return ODSimilarity(fields, a, b)
	}
	if len(a) != len(fields) || len(b) != len(fields) {
		return 0, fmt.Errorf("similarity: OD value count mismatch: %d fields, %d/%d values", len(fields), len(a), len(b))
	}
	var sum, weight float64
	for i, f := range fields {
		va, vb := a[i], b[i]
		if len(va) == 0 && len(vb) == 0 {
			continue // both missing: field is uninformative
		}
		weight += f.Relevance
		if len(va) == 0 || len(vb) == 0 {
			continue // one side missing: counts as similarity 0
		}
		sum += f.Relevance * c.bestMatch(i, f.Sim, va, vb)
	}
	if weight == 0 {
		return 0, nil
	}
	return sum / weight, nil
}

// ODFieldSims is the memoized equivalent of the package-level
// ODFieldSims; see ODSimilarity for the equivalence argument.
func (c *Cache) ODFieldSims(fields []ODField, a, b [][]string) ([]float64, error) {
	if c == nil {
		return ODFieldSims(fields, a, b)
	}
	if len(a) != len(fields) || len(b) != len(fields) {
		return nil, fmt.Errorf("similarity: OD value count mismatch: %d fields, %d/%d values", len(fields), len(a), len(b))
	}
	out := make([]float64, len(fields))
	for i, f := range fields {
		va, vb := a[i], b[i]
		switch {
		case len(va) == 0 && len(vb) == 0:
			out[i] = FieldAbsent
		case len(va) == 0 || len(vb) == 0:
			out[i] = 0
		default:
			out[i] = c.bestMatch(i, f.Sim, va, vb)
		}
	}
	return out, nil
}

// bestMatch mirrors the uncached bestMatch exactly — same cross
// product order, same strict improvement test, same early exit at 1 —
// so the returned float is bit-identical to the uncached path.
func (c *Cache) bestMatch(field int, sim Func, va, vb []string) float64 {
	best := 0.0
	for _, x := range va {
		for _, y := range vb {
			if s := c.Score(field, sim, x, y); s > best {
				best = s
				if best == 1 {
					return 1
				}
			}
		}
	}
	return best
}

// InternDesc interns a descendant cluster-ID list as its canonical
// multiset and returns its SetID. Lists that are permutations of each
// other intern to the same ID. The input is not retained or modified.
func (c *Cache) InternDesc(list []int) SetID {
	if c == nil {
		return 0
	}
	return c.desc.intern(list, &c.descSets)
}

// OverlapIDs returns the Def. 3 multiset overlap of two interned sets.
// Equal IDs short-circuit to 1 (equal multisets by construction —
// including empty vs empty, where Overlap is vacuously 1); other pairs
// are memoized. The result is exactly Overlap applied to the interned
// multisets: the canonical lists are sorted, so OverlapSorted counts
// the same intersection.
func (c *Cache) OverlapIDs(x, y SetID) float64 {
	if x == y {
		c.hits.Add(1)
		return 1
	}
	if v, ok := c.desc.overlapGet(x, y); ok {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	v := OverlapSorted(c.desc.list(x), c.desc.list(y))
	c.evictions.Add(c.desc.overlapPut(x, y, v))
	return v
}

// valueKey identifies one memoized similarity computation. Using the
// struct itself as the map key makes collisions impossible by
// construction; AppendPairKey is the equivalent canonical byte
// encoding used for shard hashing and fuzzed for injectivity.
type valueKey struct {
	field int32
	a, b  string
}

// valueShard is one lock's worth of the value-pair LRU: a map into a
// slab of entries linked into a recency list by index. Slab storage
// keeps eviction allocation-free after warm-up.
type valueShard struct {
	mu         sync.Mutex
	m          map[valueKey]int32
	ents       []valueEntry
	head, tail int32 // recency list: head = most recent
	cap        int
}

type valueEntry struct {
	key        valueKey
	val        float64
	prev, next int32
}

func (s *valueShard) init(capacity int) {
	s.cap = capacity
	s.m = make(map[valueKey]int32, capacity)
	s.ents = make([]valueEntry, 0, capacity)
	s.head, s.tail = -1, -1
}

func (s *valueShard) get(k valueKey) (float64, bool) {
	s.mu.Lock()
	i, ok := s.m[k]
	if !ok {
		s.mu.Unlock()
		return 0, false
	}
	s.moveFront(i)
	v := s.ents[i].val
	s.mu.Unlock()
	return v, true
}

// put inserts k→v, evicting the least recently used entry when full,
// and returns the number of evictions (0 or 1).
func (s *valueShard) put(k valueKey, v float64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.m[k]; ok {
		// A concurrent worker computed the same pair first; the values
		// are identical (pure function), keep the existing entry.
		s.moveFront(i)
		return 0
	}
	var evicted int64
	var i int32
	if len(s.ents) < s.cap {
		i = int32(len(s.ents))
		s.ents = append(s.ents, valueEntry{})
	} else {
		i = s.tail
		s.detach(i)
		delete(s.m, s.ents[i].key)
		evicted = 1
	}
	s.ents[i] = valueEntry{key: k, val: v, prev: -1, next: -1}
	s.pushFront(i)
	s.m[k] = i
	return evicted
}

func (s *valueShard) moveFront(i int32) {
	if s.head == i {
		return
	}
	s.detach(i)
	s.pushFront(i)
}

func (s *valueShard) detach(i int32) {
	e := &s.ents[i]
	if e.prev >= 0 {
		s.ents[e.prev].next = e.next
	} else if s.head == i {
		s.head = e.next
	}
	if e.next >= 0 {
		s.ents[e.next].prev = e.prev
	} else if s.tail == i {
		s.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (s *valueShard) pushFront(i int32) {
	e := &s.ents[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.ents[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

// descStore interns descendant multisets and memoizes their pairwise
// overlaps. Interning is append-only; the overlap memo is cleared
// wholesale when it reaches capacity (overlap pairs are cheap to
// recompute and the clear keeps memory bounded without bookkeeping).
type descStore struct {
	mu         sync.Mutex
	ids        map[string]SetID
	lists      [][]int
	overlap    map[uint64]float64
	overlapCap int
}

func (d *descStore) init(capacity int) {
	d.ids = make(map[string]SetID)
	d.overlap = make(map[uint64]float64)
	d.overlapCap = capacity
}

func (d *descStore) intern(list []int, count *atomic.Int64) SetID {
	canon := make([]int, len(list))
	copy(canon, list)
	sort.Ints(canon)
	var buf []byte
	for _, id := range canon {
		buf = binary.AppendVarint(buf, int64(id))
	}
	key := string(buf)
	d.mu.Lock()
	if id, ok := d.ids[key]; ok {
		d.mu.Unlock()
		return id
	}
	id := SetID(len(d.lists))
	d.lists = append(d.lists, canon)
	d.ids[key] = id
	d.mu.Unlock()
	count.Add(1)
	return id
}

func (d *descStore) list(id SetID) []int {
	d.mu.Lock()
	l := d.lists[id]
	d.mu.Unlock()
	return l
}

func overlapKey(x, y SetID) uint64 {
	if x > y {
		x, y = y, x
	}
	return uint64(uint32(x))<<32 | uint64(uint32(y))
}

func (d *descStore) overlapGet(x, y SetID) (float64, bool) {
	d.mu.Lock()
	v, ok := d.overlap[overlapKey(x, y)]
	d.mu.Unlock()
	return v, ok
}

// overlapPut memoizes one overlap, returning how many entries were
// dropped to stay within the capacity bound.
func (d *descStore) overlapPut(x, y SetID, v float64) int64 {
	d.mu.Lock()
	var evicted int64
	if len(d.overlap) >= d.overlapCap {
		evicted = int64(len(d.overlap))
		d.overlap = make(map[uint64]float64)
	}
	d.overlap[overlapKey(x, y)] = v
	d.mu.Unlock()
	return evicted
}

// AppendPairKey appends the canonical byte encoding of a value-pair
// cache key to dst and returns the extended slice: varint(field),
// uvarint(len(a)), the bytes of a, uvarint(len(b)), the bytes of b.
// Length-prefixing makes the encoding injective — no choice of
// separator bytes inside the values (tabs, pipes, NULs, invalid UTF-8)
// can make two distinct (field, a, b) triples collide. FuzzPairKey
// proves the round trip through DecodePairKey.
func AppendPairKey(dst []byte, field int, a, b string) []byte {
	dst = binary.AppendVarint(dst, int64(field))
	dst = binary.AppendUvarint(dst, uint64(len(a)))
	dst = append(dst, a...)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	dst = append(dst, b...)
	return dst
}

// DecodePairKey parses an encoding produced by AppendPairKey back into
// its (field, a, b) triple. Truncated, oversized, or trailing-garbage
// inputs return an error rather than a misparse.
func DecodePairKey(key []byte) (field int, a, b string, err error) {
	f, n := binary.Varint(key)
	if n <= 0 {
		return 0, "", "", fmt.Errorf("similarity: pair key: bad field varint")
	}
	key = key[n:]
	a, key, err = decodeLenPrefixed(key)
	if err != nil {
		return 0, "", "", fmt.Errorf("similarity: pair key: first value: %w", err)
	}
	b, key, err = decodeLenPrefixed(key)
	if err != nil {
		return 0, "", "", fmt.Errorf("similarity: pair key: second value: %w", err)
	}
	if len(key) != 0 {
		return 0, "", "", fmt.Errorf("similarity: pair key: %d trailing bytes", len(key))
	}
	return int(f), a, b, nil
}

func decodeLenPrefixed(key []byte) (string, []byte, error) {
	l, n := binary.Uvarint(key)
	if n <= 0 {
		return "", nil, fmt.Errorf("bad length uvarint")
	}
	key = key[n:]
	if l > uint64(len(key)) {
		return "", nil, fmt.Errorf("length %d exceeds %d remaining bytes", l, len(key))
	}
	return string(key[:l]), key[l:], nil
}

// pairShard hashes the canonical key encoding (computed incrementally,
// no allocation) with FNV-1a to pick a shard. Only distribution
// matters here; injectivity is the map key's job.
func pairShard(field int, a, b string) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(uint32(field)))
	mix(uint64(len(a)))
	for i := 0; i < len(a); i++ {
		h ^= uint64(a[i])
		h *= prime64
	}
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return uint32(h ^ h>>32)
}
