package clock

// The tree substrate stores a clock as a persistent radix-8 trie over
// its chunks, following the tree-clock idea of Mathur–Tunç (ASPLOS
// 2022): an operation copies only the root-to-changed-subtree path,
// so Tick is O(log n) and Join is O(subtrees that actually changed)
// instead of the flat spine's O(n/chunkSize) pointer copy. Leaves
// alias the same immutable chunk blocks the flat substrate uses, so
// converting a flat node to a tree shares all its storage, and every
// trie node carries the digest and sum of its subtree — the same
// aggregates the interned node carries for the whole value — letting
// Join/Leq/Equal/Diff skip shared or dominated subtrees wholesale,
// exactly as the flat code skips shared chunks.
//
// Canonical shape: a value of significant length n has height
// treeHeight(n), and an all-zero subtree is a nil pointer, so a
// non-nil subtree always contains a nonzero component. Because the
// per-subtree digest is the XOR of the same per-component contrib()
// mixes the flat code folds, a value's root digest — and therefore
// Ref.Digest(), shard selection and cut dedup — is identical no
// matter which substrate built it.

// treeFanout is the trie radix: each inner node has chunkSize
// children, so a component index decomposes as
// [kid · kid · … · kid | offset-within-chunk] in base-8 digits.
const treeFanout = chunkSize

// tnode is one immutable trie node. Height-0 nodes are leaves holding
// one chunk; higher nodes hold children spanning treeFanout^h chunks.
type tnode struct {
	kids   [treeFanout]*tnode
	leaf   *chunk
	digest uint64
	sum    uint64
}

// treeHeight returns the canonical trie height for significant length
// n: 0 while one chunk suffices, one more level each time the chunk
// count outgrows a power of treeFanout.
func treeHeight(n int) int {
	nc := (n + chunkSize - 1) >> chunkShift
	h := 0
	for span := 1; span < nc; span <<= chunkShift {
		h++
	}
	return h
}

// kidIndex returns which child of a height-h node covers chunk ci.
func kidIndex(ci, h int) int {
	return (ci >> (chunkShift * (h - 1))) & (treeFanout - 1)
}

// kidSpan returns the chunk span covered by each child of a height-h
// node.
func kidSpan(h int) int { return 1 << (chunkShift * (h - 1)) }

// treeBuild builds the canonical subtree of height h covering chunks
// [cbase, cbase+treeFanout^h) of the normalized components comps[:n],
// returning nil for an all-zero span.
func treeBuild(comps []uint64, n, cbase, h int) *tnode {
	if cbase<<chunkShift >= n {
		return nil
	}
	if h == 0 {
		c := &chunk{}
		var d, s uint64
		nz := false
		base := cbase << chunkShift
		for k := 0; k < chunkSize && base+k < n; k++ {
			x := comps[base+k]
			c[k] = x
			if x != 0 {
				d ^= mix(base+k, x)
				s += x
				nz = true
			}
		}
		if !nz {
			return nil
		}
		return &tnode{leaf: c, digest: d, sum: s}
	}
	span := kidSpan(h)
	out := &tnode{}
	nz := false
	for k := 0; k < treeFanout; k++ {
		if kid := treeBuild(comps, n, cbase+k*span, h-1); kid != nil {
			out.kids[k] = kid
			out.digest ^= kid.digest
			out.sum += kid.sum
			nz = true
		}
	}
	if !nz {
		return nil
	}
	return out
}

// treeFromChunks builds the canonical subtree of height h over a flat
// chunk spine, aliasing its chunk blocks (chunks are immutable, so
// the two substrates can share them). Only paid at the flat→tree
// boundary of an auto promotion.
func treeFromChunks(chunks []*chunk, cbase, h int) *tnode {
	if cbase >= len(chunks) {
		return nil
	}
	if h == 0 {
		c := chunks[cbase]
		var d, s uint64
		nz := false
		base := cbase << chunkShift
		for k := 0; k < chunkSize; k++ {
			if x := c[k]; x != 0 {
				d ^= mix(base+k, x)
				s += x
				nz = true
			}
		}
		if !nz {
			return nil
		}
		return &tnode{leaf: c, digest: d, sum: s}
	}
	span := kidSpan(h)
	out := &tnode{}
	nz := false
	for k := 0; k < treeFanout; k++ {
		if kid := treeFromChunks(chunks, cbase+k*span, h-1); kid != nil {
			out.kids[k] = kid
			out.digest ^= kid.digest
			out.sum += kid.sum
			nz = true
		}
	}
	if !nz {
		return nil
	}
	return out
}

// treeGetChunk descends to chunk ci of a height-h subtree.
func treeGetChunk(t *tnode, ci, h int) *chunk {
	for t != nil && h > 0 {
		t = t.kids[kidIndex(ci, h)]
		h--
	}
	if t == nil {
		return zeroChunk
	}
	return t.leaf
}

// treeFill materializes a height-h subtree covering chunks starting
// at cbase into out, skipping nil (all-zero) spans.
func treeFill(out []uint64, t *tnode, cbase, h int) {
	if t == nil {
		return
	}
	if h == 0 {
		base := cbase << chunkShift
		for k := 0; k < chunkSize && base+k < len(out); k++ {
			out[base+k] = t.leaf[k]
		}
		return
	}
	span := kidSpan(h)
	for k := 0; k < treeFanout; k++ {
		treeFill(out, t.kids[k], cbase+k*span, h-1)
	}
}

// treeLift wraps t in kids[0]-only parents until it reaches height
// to. The added levels cover the same components, so the aggregates
// are unchanged.
func treeLift(t *tnode, from, to int) *tnode {
	if t == nil {
		return nil
	}
	for ; from < to; from++ {
		nt := &tnode{digest: t.digest, sum: t.sum}
		nt.kids[0] = t
		t = nt
	}
	return t
}

// treeRoot returns the node's trie root and height, converting a
// flat-backed node on the fly (mixed operands only occur around an
// auto promotion, and pre-promotion flat values are threshold-bounded,
// so the conversion cost is O(threshold), not O(n)).
func (p *node) treeRoot() (*tnode, int) {
	h := treeHeight(p.n)
	if p.tree != nil {
		return p.tree, h
	}
	return treeFromChunks(p.flat, 0, h), h
}

// treeSet returns a copy of the height-h subtree t with component i
// (living in chunk ci) raised from old to x, copying only the
// root-to-leaf path. copied counts the tnodes allocated.
func treeSet(t *tnode, ci, h, i int, old, x uint64, copied *int) *tnode {
	*copied++
	if h == 0 {
		var c chunk
		var d, s uint64
		if t != nil {
			c = *t.leaf
			d, s = t.digest, t.sum
		}
		c[i&(chunkSize-1)] = x
		d ^= contrib(i, old) ^ contrib(i, x)
		s += x - old
		return &tnode{leaf: &c, digest: d, sum: s}
	}
	k := kidIndex(ci, h)
	out := &tnode{}
	var kid *tnode
	if t != nil {
		*out = *t
		kid = t.kids[k]
	}
	var kd, ks uint64
	if kid != nil {
		kd, ks = kid.digest, kid.sum
	}
	nk := treeSet(kid, ci, h-1, i, old, x, copied)
	out.kids[k] = nk
	out.digest ^= kd ^ nk.digest
	out.sum += nk.sum - ks
	return out
}

// treeJoin returns the pointwise maximum of two height-h subtrees
// covering chunks from cbase, returning a or b unchanged whenever one
// side dominates and copying only the subtrees where both sides
// contribute. copied counts the tnodes allocated.
func treeJoin(a, b *tnode, cbase, h int, copied *int) *tnode {
	if a == b || b == nil {
		return a
	}
	if a == nil {
		return b
	}
	if h == 0 {
		ca, cb := a.leaf, b.leaf
		if ca == cb {
			return a
		}
		fromA, fromB := true, true
		var m chunk
		var d, s uint64
		base := cbase << chunkShift
		for k := 0; k < chunkSize; k++ {
			x, y := ca[k], cb[k]
			if x >= y {
				m[k] = x
				if x > y {
					fromB = false
				}
				d ^= contrib(base+k, x)
				s += x
			} else {
				m[k] = y
				fromA = false
				d ^= contrib(base+k, y)
				s += y
			}
		}
		switch {
		case fromA:
			return a
		case fromB:
			return b
		}
		*copied++
		c := m
		return &tnode{leaf: &c, digest: d, sum: s}
	}
	span := kidSpan(h)
	fromA, fromB := true, true
	var kids [treeFanout]*tnode
	var d, s uint64
	for k := 0; k < treeFanout; k++ {
		ka, kb := a.kids[k], b.kids[k]
		nk := treeJoin(ka, kb, cbase+k*span, h-1, copied)
		kids[k] = nk
		if nk != ka {
			fromA = false
		}
		if nk != kb {
			fromB = false
		}
		if nk != nil {
			d ^= nk.digest
			s += nk.sum
		}
	}
	switch {
	case fromA:
		return a
	case fromB:
		return b
	}
	*copied++
	return &tnode{kids: kids, digest: d, sum: s}
}

// treeLeq reports pointwise a ≤ b over two same-height subtrees,
// skipping shared subtrees by pointer and rejecting via the sum
// aggregate (pointwise ≤ implies subtree sum ≤).
func treeLeq(a, b *tnode, h int) bool {
	if a == b || a == nil {
		return true
	}
	if b == nil {
		return false // a contains a nonzero component b lacks
	}
	if a.sum > b.sum {
		return false
	}
	if h == 0 {
		ca, cb := a.leaf, b.leaf
		for k := 0; k < chunkSize; k++ {
			if ca[k] > cb[k] {
				return false
			}
		}
		return true
	}
	for k := 0; k < treeFanout; k++ {
		if !treeLeq(a.kids[k], b.kids[k], h-1) {
			return false
		}
	}
	return true
}

// treeLeqRoots aligns roots of different heights: the caller
// guarantees ha ≤ hb (Leq rejects on length first), and a's
// components all live under b's leftmost spine.
func treeLeqRoots(a *tnode, ha int, b *tnode, hb int) bool {
	for hb > ha {
		if b == nil {
			return a == nil
		}
		b = b.kids[0]
		hb--
	}
	return treeLeq(a, b, ha)
}

// treeEqual compares two same-height subtrees, pruning on pointer
// identity and on the aggregates.
func treeEqual(a, b *tnode, h int) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.digest != b.digest || a.sum != b.sum {
		return false
	}
	if h == 0 {
		return a.leaf == b.leaf || *a.leaf == *b.leaf
	}
	for k := 0; k < treeFanout; k++ {
		if !treeEqual(a.kids[k], b.kids[k], h-1) {
			return false
		}
	}
	return true
}

// treeCompare orders two same-height subtrees component-
// lexicographically, skipping shared subtrees.
func treeCompare(a, b *tnode, h int) int {
	if a == b {
		return 0
	}
	if h == 0 {
		ca, cb := zeroChunk, zeroChunk
		if a != nil {
			ca = a.leaf
		}
		if b != nil {
			cb = b.leaf
		}
		if ca == cb {
			return 0
		}
		for k := 0; k < chunkSize; k++ {
			if ca[k] != cb[k] {
				if ca[k] < cb[k] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	for k := 0; k < treeFanout; k++ {
		var ka, kb *tnode
		if a != nil {
			ka = a.kids[k]
		}
		if b != nil {
			kb = b.kids[k]
		}
		if c := treeCompare(ka, kb, h-1); c != 0 {
			return c
		}
	}
	return 0
}

// treeDiff implements Diff over two same-height subtrees: it calls f
// for every component where cur exceeds prev in ascending order,
// reports false on any decrease, and skips shared subtrees wholesale.
func treeDiff(prev, cur *tnode, cbase, h int, f func(i int, delta uint64)) bool {
	if prev == cur {
		return true
	}
	if cur == nil {
		return prev == nil // prev has a nonzero component cur lacks
	}
	if h == 0 {
		cp := zeroChunk
		if prev != nil {
			cp = prev.leaf
		}
		cc := cur.leaf
		base := cbase << chunkShift
		for k := 0; k < chunkSize; k++ {
			switch {
			case cc[k] > cp[k]:
				f(base+k, cc[k]-cp[k])
			case cc[k] < cp[k]:
				return false
			}
		}
		return true
	}
	span := kidSpan(h)
	for k := 0; k < treeFanout; k++ {
		var kp *tnode
		if prev != nil {
			kp = prev.kids[k]
		}
		if !treeDiff(kp, cur.kids[k], cbase+k*span, h-1, f) {
			return false
		}
	}
	return true
}

// treeDiffRoots aligns roots of different heights (hp ≤ hc, from
// Diff's length test): prev lives entirely under cur's leftmost
// spine, and everything outside it is emitted as fresh — still in
// ascending index order, since kid 0 covers the lowest chunks.
func treeDiffRoots(prev *tnode, hp int, cur *tnode, hc, cbase int, f func(i int, delta uint64)) bool {
	if hp == hc {
		return treeDiff(prev, cur, cbase, hc, f)
	}
	if cur == nil {
		return prev == nil
	}
	span := kidSpan(hc)
	if !treeDiffRoots(prev, hp, cur.kids[0], hc-1, cbase, f) {
		return false
	}
	for k := 1; k < treeFanout; k++ {
		if !treeDiff(nil, cur.kids[k], cbase+k*span, hc-1, f) {
			return false
		}
	}
	return true
}

// treeOps is the radix-trie substrate.
type treeOps struct{}

func (treeOps) kind() Repr { return ReprTree }

func (treeOps) intern(t *Table, comps []uint64, n int) Ref {
	root := treeBuild(comps, n, 0, treeHeight(n))
	return t.intern(&node{tree: root, n: n, digest: root.digest, sum: root.sum})
}

func (treeOps) set(t *Table, r Ref, i int, x uint64, n int) Ref {
	p, copied := treeSetNode(r, i, x, n)
	treeOpRecorded(treeHeight(n), copied)
	return t.intern(p)
}

// treeSetNode builds, without interning, the tree node for r with
// component i raised to x; n is the resulting significant length. It
// also returns the number of trie nodes copied.
func treeSetNode(r Ref, i int, x uint64, n int) (*node, int) {
	h := treeHeight(n)
	var root *tnode
	if r.p != nil {
		var rh int
		root, rh = r.p.treeRoot()
		root = treeLift(root, rh, h)
	}
	copied := 0
	nr := treeSet(root, i>>chunkShift, h, i, r.Get(i), x, &copied)
	return &node{tree: nr, n: n, digest: nr.digest, sum: nr.sum}, copied
}

func (treeOps) join(t *Table, a, b Ref, n int) Ref {
	h := treeHeight(n)
	ra, ha := a.p.treeRoot()
	rb, hb := b.p.treeRoot()
	ra = treeLift(ra, ha, h)
	rb = treeLift(rb, hb, h)
	copied := 0
	root := treeJoin(ra, rb, 0, h, &copied)
	treeOpRecorded(h, copied)
	return t.intern(&node{tree: root, n: n, digest: root.digest, sum: root.sum})
}
