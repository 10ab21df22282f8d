// The hash join's build-key filter: one register-blocked Bloom filter
// per join, built once when the build seals, over every non-NULL build
// key hash — the rows the join keeps in memory and the rows its demoted
// partitions spilled alike. Two readers share it:
//
//   - Filtered shuffles. A node-local join behind a hash exchange
//     publishes its filter, and the exchange feeding its probe side
//     drops every row the filter rejects before the row is gathered or
//     sent (exchange.go). The dropped rows are metered as
//     Counters.ExchFilteredRows.
//   - Demoted spill partitions. Every probe row hashing to a partition
//     demoted to disk would classically be written to a run file and
//     re-read in the second pass, even a row whose key matches nothing
//     on the build side. A row the filter rejects skips the spill write;
//     the skipped rows are metered as Counters.SpillSkippedRows.
//
// A negative answer is exact: every build key is added before either
// reader starts. The filter's size is a function of the build's row
// count and its bits of the build's key multiset (adds are ORs), so
// neither depends on which partitions demoted, or when.
//
// The filter is register-blocked: a key sets 6 bits of ONE 64-bit word,
// so a check is one load and one compare. The word is the top bits of
// h·bucketMul and the bits come from a second remix of h, so neither
// the radix bits a partition shares nor the low bits a hash exchange
// routes on (h % nodes) leave part of the filter unused.
package exec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// bloomBitsPerKey is the least filter size per key. The word count
// rounds up to a power of two, so a filter holds 16–32 bits per key and
// a fill ratio of 17–30%. Its false-positive rate falls with the bits
// per key; measured over random hashes it is about 0.4% at 16, 0.15% at
// 22, 0.08% at 26 and 0.04% at 32 (TestBloomFPRNearTarget).
const bloomBitsPerKey = 16

// KeyFilter is a hash join's build-key filter, a register-blocked Bloom
// filter over value.Hash64 keys. A filter of an empty build rejects
// every key; a nil *KeyFilter passes every key. Read-only once built,
// so the join's probe workers and the exchange's producers share it
// freely.
type KeyFilter struct {
	words []uint64
	shift uint // 64 - log2(len(words)); 64 for a one-word filter
}

// joinFilterWordCap, when positive, caps the words of every KeyFilter
// (SetJoinFilterWordCap).
var joinFilterWordCap atomic.Int64

// SetJoinFilterWordCap caps every join filter built from now on at n
// words, a power of two (0 lifts the cap), and returns the previous
// cap. It exists for tests: a one-word filter passes most rows that
// cannot match, which must cost the join time and never an answer.
func SetJoinFilterWordCap(n int) int { return int(joinFilterWordCap.Swap(int64(n))) }

// newKeyFilter builds a filter over every hash in sets, sized from
// their total count.
func newKeyFilter(sets ...[]uint64) *KeyFilter {
	n := 0
	for _, hs := range sets {
		n += len(hs)
	}
	nw := 1
	for nw*64 < n*bloomBitsPerKey {
		nw <<= 1
	}
	if c := int(joinFilterWordCap.Load()); c > 0 && nw > c {
		nw = c
	}
	f := filterOf(make([]uint64, nw))
	for _, hs := range sets {
		for _, h := range hs {
			f.words[f.word(h)] |= bloomMask(h)
		}
	}
	return f
}

// filterOf wraps words, a power of two of them, as a filter.
func filterOf(words []uint64) *KeyFilter {
	return &KeyFilter{words: words, shift: uint(64 - bits.TrailingZeros(uint(len(words))))}
}

// word is the index of h's word: the top bits of h·bucketMul.
func (f *KeyFilter) word(h uint64) uint64 { return (h * bucketMul) >> f.shift }

// bloomMask is the 6 bits h sets in its word, six 6-bit fields from the
// top of a second remix (fewer when two fields coincide).
func bloomMask(h uint64) uint64 {
	x := (h ^ h>>32) * 0xbf58476d1ce4e5b9
	return 1<<(x>>58) | 1<<(x>>52&63) | 1<<(x>>46&63) |
		1<<(x>>40&63) | 1<<(x>>34&63) | 1<<(x>>28&63)
}

// mayPass reports whether a probe row with key hash h could match the
// join's build: false is exact (zero false negatives by construction),
// true may be a false positive. f must be non-nil.
func (f *KeyFilter) mayPass(h uint64) bool {
	m := bloomMask(h)
	return f.words[f.word(h)]&m == m
}

// fillRatio reports the fraction of set bits — a saturation diagnostic
// for tests (a filter past ~50% fill has blown its false-positive
// budget).
func (f *KeyFilter) fillRatio() float64 {
	set := 0
	for _, w := range f.words {
		set += bits.OnesCount64(w)
	}
	return float64(set) / float64(len(f.words)*64)
}

// AppendKeyFilter appends f's wire form to dst: the single byte 0 for a
// nil filter; else the byte 1, one byte of log2 of the word count, and
// the words, each 8 bytes little-endian.
func AppendKeyFilter(dst []byte, f *KeyFilter) []byte {
	if f == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1, byte(64-f.shift))
	for _, w := range f.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// DecodeKeyFilter is the inverse of AppendKeyFilter. It accepts exactly
// the forms AppendKeyFilter writes: a bad presence byte, a word count
// that is not a power of two or disagrees with its log byte, truncated
// input and trailing bytes are errors.
func DecodeKeyFilter(b []byte) (*KeyFilter, error) {
	switch {
	case len(b) == 1 && b[0] == 0:
		return nil, nil
	case len(b) < 2 || b[0] != 1:
		return nil, fmt.Errorf("exec: key filter: bad header in %d bytes", len(b))
	}
	nw := (len(b) - 2) / 8
	if 8*nw != len(b)-2 || nw == 0 || nw&(nw-1) != 0 || bits.TrailingZeros(uint(nw)) != int(b[1]) {
		return nil, fmt.Errorf("exec: key filter: %d bytes do not hold 2^%d words", len(b)-2, b[1])
	}
	ws := make([]uint64, nw)
	for i := range ws {
		ws[i] = binary.LittleEndian.Uint64(b[2+8*i:])
	}
	return filterOf(ws), nil
}
