package stream

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// The ID index is a persistent hash array mapped trie (Bagwell, "Ideal
// Hash Trees", 2001) from request ID to RequestState. Nodes are never
// written once built: an update copies the nodes on the path from the
// root to the changed leaf (about log32 n of them) and shares every other
// node with the index it was derived from, so each published snapshot
// keeps its own root at no per-publish cost.

const (
	trieBits = 5 // hash bits consumed per level: 32-way nodes
	trieMask = 1<<trieBits - 1
	// hashBits is where the 64-bit hash runs out; a node at this depth is
	// a collision bucket holding leaves whose hashes are all equal.
	hashBits = 64
)

// idSeed keys the trie's hash. Trie shape varies between processes;
// lookups do not.
var idSeed = maphash.MakeSeed()

// hashID hashes a request ID for the index. It is a variable only so that
// tests can force full 64-bit collisions.
var hashID = func(id string) uint64 { return maphash.String(idSeed, id) }

// trieNode holds one kid per set bit of bitmap, in hash-digit order. A
// collision bucket (depth hashBits) ignores bitmap and lists its leaves.
type trieNode struct {
	bitmap uint32
	kids   []trieKid
}

// trieKid is either a leaf (a request's state) or a subtree.
type trieKid struct {
	leaf *RequestState
	node *trieNode
}

// get returns the state indexed under id, or nil. A nil node is the
// empty index.
func (n *trieNode) get(id string) *RequestState {
	h := hashID(id)
	for shift := 0; n != nil; shift += trieBits {
		if shift >= hashBits {
			for _, k := range n.kids {
				if k.leaf.ID == id {
					return k.leaf
				}
			}
			return nil
		}
		bit := uint32(1) << (h >> shift & trieMask)
		if n.bitmap&bit == 0 {
			return nil
		}
		k := n.kids[bits.OnesCount32(n.bitmap&(bit-1))]
		if k.node == nil {
			if k.leaf.ID == id {
				return k.leaf
			}
			return nil
		}
		n = k.node
	}
	return nil
}

// with returns an index that maps rs.ID to rs and otherwise equals n.
func (n *trieNode) with(rs *RequestState) *trieNode {
	return n.put(rs, hashID(rs.ID), 0)
}

func (n *trieNode) put(rs *RequestState, h uint64, shift int) *trieNode {
	if shift >= hashBits {
		var kids []trieKid
		if n != nil {
			kids = make([]trieKid, 0, len(n.kids)+1)
			for _, k := range n.kids {
				if k.leaf.ID != rs.ID {
					kids = append(kids, k)
				}
			}
		}
		return &trieNode{kids: append(kids, trieKid{leaf: rs})}
	}
	bit := uint32(1) << (h >> shift & trieMask)
	if n == nil {
		return &trieNode{bitmap: bit, kids: []trieKid{{leaf: rs}}}
	}
	i := bits.OnesCount32(n.bitmap & (bit - 1))
	if n.bitmap&bit == 0 {
		kids := make([]trieKid, len(n.kids)+1)
		copy(kids, n.kids[:i])
		kids[i] = trieKid{leaf: rs}
		copy(kids[i+1:], n.kids[i:])
		return &trieNode{bitmap: n.bitmap | bit, kids: kids}
	}
	var kid trieKid
	switch k := n.kids[i]; {
	case k.node != nil:
		kid.node = k.node.put(rs, h, shift+trieBits)
	case k.leaf.ID == rs.ID:
		kid.leaf = rs
	default:
		// Two IDs share this digit: push both one level down.
		kid.node = (*trieNode)(nil).put(k.leaf, hashID(k.leaf.ID), shift+trieBits).put(rs, h, shift+trieBits)
	}
	return n.replaced(i, kid)
}

// replaced returns a copy of n with kid i replaced.
func (n *trieNode) replaced(i int, kid trieKid) *trieNode {
	kids := make([]trieKid, len(n.kids))
	copy(kids, n.kids)
	kids[i] = kid
	return &trieNode{bitmap: n.bitmap, kids: kids}
}

// removed returns a copy of n without kid i and with bitmap bits clear.
func (n *trieNode) removed(i int, clearBits uint32) *trieNode {
	kids := make([]trieKid, len(n.kids)-1)
	copy(kids, n.kids[:i])
	copy(kids[i:], n.kids[i+1:])
	return &trieNode{bitmap: n.bitmap &^ clearBits, kids: kids}
}

// without returns an index without id (n itself when id is absent).
func (n *trieNode) without(id string) *trieNode {
	out, _ := n.del(id, hashID(id), 0)
	return out
}

// del removes id below n, reporting whether it was present. A subtree
// left with a single leaf collapses into its parent, so deletions keep
// the trie as shallow as the live IDs need.
func (n *trieNode) del(id string, h uint64, shift int) (*trieNode, bool) {
	if n == nil {
		return nil, false
	}
	if shift >= hashBits {
		i := slices.IndexFunc(n.kids, func(k trieKid) bool { return k.leaf.ID == id })
		if i < 0 {
			return n, false
		}
		if len(n.kids) == 1 {
			return nil, true
		}
		return n.removed(i, 0), true
	}
	bit := uint32(1) << (h >> shift & trieMask)
	if n.bitmap&bit == 0 {
		return n, false
	}
	i := bits.OnesCount32(n.bitmap & (bit - 1))
	k := n.kids[i]
	if k.node == nil {
		if k.leaf.ID != id {
			return n, false
		}
	} else {
		sub, ok := k.node.del(id, h, shift+trieBits)
		if !ok {
			return n, false
		}
		if sub != nil {
			kid := trieKid{node: sub}
			if len(sub.kids) == 1 && sub.kids[0].node == nil {
				kid = sub.kids[0]
			}
			return n.replaced(i, kid), true
		}
	}
	if len(n.kids) == 1 {
		return nil, true
	}
	return n.removed(i, bit), true
}
