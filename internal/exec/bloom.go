// The hash join's Bloom filters: one register-blocked filter type with
// two users.
//
//   - Demoted spill partitions. When a partition is demoted to disk,
//     every probe row hashing to it would classically be written to a
//     run file and re-read in the second pass, even rows whose key
//     matches nothing on the build side. A filter over the demoted
//     partition's build keys lets such rows skip the spill write: a
//     negative answer is exact (every build key is inserted before the
//     probe starts), a positive answer falls back to the write. The
//     skipped rows are metered as Counters.SpillSkippedRows.
//   - Filtered shuffles. A node-local join behind a hash exchange
//     publishes a KeyFilter over its sealed build's key hashes, and the
//     exchange feeding its probe side drops every row the filter
//     rejects before the row is gathered or sent (exchange.go). The
//     dropped rows are metered as Counters.ExchFilteredRows.
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
	"math"
	"math/bits"
	"sync/atomic"
)

// defaultBloomFPR is the false-positive target filters are sized for.
// The register-blocked form meets it at bloomBitsPerKey (measured
// 0.12–0.23% at 100 to 100,000 keys); a stricter target scales the bits
// per key.
const defaultBloomFPR = 0.01

// bloomBitsPerKey is the least filter size per expected key. The word
// count rounds up to a power of two, so a filter holds 16–32 bits per
// key and a fill ratio of about a quarter.
const bloomBitsPerKey = 16

// bloomFilter is a register-blocked Bloom filter over value.Hash64
// keys. Adds are safe for concurrent use (build workers of a demoted
// partition add while flushing); checks must only start once adds have
// finished — the join's build/probe phase barrier, or the publish of a
// sealed join's KeyFilter, guarantees it.
type bloomFilter struct {
	words []uint64
	shift uint // 64 - log2(len(words)); 64 for a one-word filter
}

// newBloomFilter sizes a filter for expected keys at the target
// false-positive rate (0 = defaultBloomFPR).
func newBloomFilter(expected int, fpr float64) *bloomFilter {
	if expected < 1 {
		expected = 1
	}
	if fpr <= 0 || fpr >= 1 {
		fpr = defaultBloomFPR
	}
	perKey := float64(bloomBitsPerKey)
	if fpr < defaultBloomFPR {
		perKey *= math.Log(fpr) / math.Log(defaultBloomFPR)
	}
	nw := 1
	for float64(nw*64) < float64(expected)*perKey {
		nw <<= 1
	}
	return newBloomWords(nw)
}

// newBloomWords returns an empty filter of nw words, a power of two.
func newBloomWords(nw int) *bloomFilter {
	return &bloomFilter{words: make([]uint64, nw), shift: uint(64 - bits.TrailingZeros(uint(nw)))}
}

// word is the index of h's word: the top bits of h·bucketMul.
func (f *bloomFilter) word(h uint64) uint64 { return (h * bucketMul) >> f.shift }

// bloomMask is the 6 bits h sets in its word, six 6-bit fields from the
// top of a second remix (fewer when two fields coincide).
func bloomMask(h uint64) uint64 {
	x := (h ^ h>>32) * 0xbf58476d1ce4e5b9
	return 1<<(x>>58) | 1<<(x>>52&63) | 1<<(x>>46&63) |
		1<<(x>>40&63) | 1<<(x>>34&63) | 1<<(x>>28&63)
}

// add inserts a key hash: one CAS loop on one word. Safe for
// concurrent use.
func (f *bloomFilter) add(h uint64) {
	w, m := &f.words[f.word(h)], bloomMask(h)
	for {
		old := atomic.LoadUint64(w)
		if old&m == m || atomic.CompareAndSwapUint64(w, old, old|m) {
			return
		}
	}
}

// mayContain reports whether h could have been added: false is exact
// (zero false negatives by construction), true may be a false positive
// at roughly the configured rate.
func (f *bloomFilter) mayContain(h uint64) bool {
	m := bloomMask(h)
	return f.words[f.word(h)]&m == m
}

// fillRatio reports the fraction of set bits — a saturation diagnostic
// for tests (a filter past ~50% fill has blown its false-positive
// budget, usually from an undersized expectation).
func (f *bloomFilter) fillRatio() float64 {
	set := 0
	for i := range f.words {
		set += bits.OnesCount64(atomic.LoadUint64(&f.words[i]))
	}
	return float64(set) / float64(len(f.words)*64)
}

// KeyFilter is what a sealed hash join publishes to the exchange that
// feeds its probe side: a Bloom filter over the exact key hashes of its
// in-memory build rows, plus the radix partitions it demoted to disk,
// whose keys always pass (their rows still meet the partition's own
// spill filter at the join). A filter of an empty build with no demoted
// partition rejects every key. A nil *KeyFilter passes every key.
// Read-only once published, so producers share it freely.
type KeyFilter struct {
	bloom *bloomFilter
	// pass is a bitset over radix partitions (h >> radixShift); nil when
	// no partition was demoted.
	pass       []uint64
	radixShift uint
}

// joinFilterWordCap, when positive, caps the words of every KeyFilter a
// join builds (SetJoinFilterWordCap).
var joinFilterWordCap atomic.Int64

// SetJoinFilterWordCap caps every join filter built from now on at n
// words, a power of two (0 lifts the cap), and returns the previous
// cap. It exists for tests: a one-word filter passes most rows that
// cannot match, which must cost the join time and never an answer.
func SetJoinFilterWordCap(n int) int { return int(joinFilterWordCap.Swap(int64(n))) }

// newKeyFilter builds a join's filter over its in-memory build hashes.
// spilled reports the demoted partitions of a join with nParts radix
// partitions (nil when the join has none).
func newKeyFilter(hashes []uint64, radixShift uint, nParts int, spilled func(p int) bool) *KeyFilter {
	bf := newBloomFilter(len(hashes), 0)
	if c := int(joinFilterWordCap.Load()); c > 0 && len(bf.words) > c {
		bf = newBloomWords(c)
	}
	for _, h := range hashes {
		bf.add(h)
	}
	f := &KeyFilter{bloom: bf, radixShift: radixShift}
	if spilled != nil {
		f.pass = make([]uint64, (nParts+63)/64)
		for p := 0; p < nParts; p++ {
			if spilled(p) {
				f.pass[p>>6] |= 1 << (p & 63)
			}
		}
	}
	return f
}

// mayPass reports whether a probe row with key hash h could match the
// join's build. f must be non-nil.
func (f *KeyFilter) mayPass(h uint64) bool {
	if f.pass != nil {
		if p := h >> f.radixShift; f.pass[p>>6]>>(p&63)&1 != 0 {
			return true
		}
	}
	return f.bloom.mayContain(h)
}

// AppendKeyFilter appends f's wire form to dst: a presence byte, then
// the radix shift, the demoted-partition bitset and the filter words,
// each word 8 bytes little-endian. A nil filter is the single byte 0.
func AppendKeyFilter(dst []byte, f *KeyFilter) []byte {
	if f == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(f.radixShift))
	dst = binary.AppendUvarint(dst, uint64(len(f.pass)))
	for _, w := range f.pass {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.bloom.words)))
	for _, w := range f.bloom.words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// DecodeKeyFilter is the inverse of AppendKeyFilter. It rejects
// truncated input, trailing bytes, a radix shift past 64 and a word
// count that is not a power of two.
func DecodeKeyFilter(b []byte) (*KeyFilter, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("exec: key filter: empty")
	}
	if b[0] == 0 {
		if len(b) != 1 {
			return nil, fmt.Errorf("exec: key filter: %d trailing bytes", len(b)-1)
		}
		return nil, nil
	}
	b = b[1:]
	uv := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("exec: key filter: bad varint")
		}
		b = b[n:]
		return v, nil
	}
	words := func() ([]uint64, error) {
		n, err := uv()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(b)/8) {
			return nil, fmt.Errorf("exec: key filter: %d words in %d bytes", n, len(b))
		}
		ws := make([]uint64, n)
		for i := range ws {
			ws[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		b = b[8*n:]
		return ws, nil
	}
	shift, err := uv()
	if err != nil {
		return nil, err
	}
	if shift > 64 {
		return nil, fmt.Errorf("exec: key filter: radix shift %d", shift)
	}
	pass, err := words()
	if err != nil {
		return nil, err
	}
	if len(pass) > 0 {
		// Every partition h >> shift must index the bitset.
		need := uint64(1)
		if rb := 64 - shift; rb > 16 {
			need = math.MaxUint64
		} else if rb > 6 {
			need = 1 << (rb - 6)
		}
		if uint64(len(pass)) < need {
			return nil, fmt.Errorf("exec: key filter: %d pass words for radix shift %d", len(pass), shift)
		}
	}
	ws, err := words()
	if err != nil {
		return nil, err
	}
	if len(ws) == 0 || len(ws)&(len(ws)-1) != 0 {
		return nil, fmt.Errorf("exec: key filter: %d words is not a power of two", len(ws))
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("exec: key filter: %d trailing bytes", len(b))
	}
	f := &KeyFilter{bloom: newBloomWords(len(ws)), radixShift: uint(shift)}
	copy(f.bloom.words, ws)
	if len(pass) > 0 {
		f.pass = pass
	}
	return f, nil
}
