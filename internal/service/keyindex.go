package service

import (
	"iter"
	"slices"
)

// keyIndex is a set of keys in ascending order: a B+-tree whose leaves
// hold the keys, O(log n) an insert or a seek. A delete leaves its leaf
// as it is; once more keys were deleted than remain, the tree is rebuilt
// (O(1) amortized). Nodes grow by a quarter (insertAt) and split into
// exact-size halves: about 20 B per key, string headers included.
type keyIndex struct {
	root    *keyNode
	n, dels int // keys, and deletes since the last build
}

// keyNode is a leaf (kids nil) or an inner node, where kids[i] holds the
// keys below keys[i] and at or above keys[i-1].
type keyNode struct {
	keys []string
	kids []*keyNode
}

const maxNodeKeys = 64

// sortedIndex builds the index of sorted, distinct keys in O(n), its
// leaves full and cut from keys, which the index owns from then on.
func sortedIndex(keys []string) keyIndex {
	var level []*keyNode
	var firsts []string // each node's least key
	for i := 0; i < len(keys); i += maxNodeKeys {
		j := min(i+maxNodeKeys, len(keys))
		level, firsts = append(level, &keyNode{keys: keys[i:j:j]}), append(firsts, keys[i])
	}
	for len(level) > 1 {
		var up []*keyNode
		var upFirsts []string
		for i := 0; i < len(level); i += maxNodeKeys + 1 {
			j := min(i+maxNodeKeys+1, len(level))
			up = append(up, &keyNode{keys: slices.Clone(firsts[i+1 : j]), kids: slices.Clone(level[i:j])})
			upFirsts = append(upFirsts, firsts[i])
		}
		level, firsts = up, upFirsts
	}
	if len(level) == 0 {
		return keyIndex{}
	}
	return keyIndex{root: level[0], n: len(keys)}
}

// insert adds key if it is absent.
func (x *keyIndex) insert(key string) {
	if x.root == nil {
		x.root = &keyNode{}
	}
	added, sep, right := x.root.insert(key)
	if right != nil {
		x.root = &keyNode{keys: []string{sep}, kids: []*keyNode{x.root, right}}
	}
	if added {
		x.n++
	}
}

// insert adds key below n. A node it overflows splits: insert returns its
// new right half and the separator for the parent.
func (n *keyNode) insert(key string) (added bool, sep string, right *keyNode) {
	i, found := slices.BinarySearch(n.keys, key)
	switch {
	case n.kids == nil && found:
		return false, "", nil
	case n.kids == nil:
		n.keys, added = insertAt(n.keys, i, key), true
	default:
		if found {
			i++
		}
		if added, sep, right = n.kids[i].insert(key); right != nil {
			n.keys, n.kids = insertAt(n.keys, i, sep), insertAt(n.kids, i+1, right)
		}
	}
	if len(n.keys) <= maxNodeKeys {
		return added, "", nil
	}
	half := len(n.keys) / 2
	sep, right = n.keys[half], &keyNode{keys: slices.Clone(n.keys[half:])}
	if n.kids != nil { // the separator moves up
		right.keys, right.kids = right.keys[1:], slices.Clone(n.kids[half+1:])
		n.kids = slices.Clone(n.kids[:half+1])
	}
	n.keys = slices.Clone(n.keys[:half])
	return added, sep, right
}

// insertAt inserts v at s[i], growing a full s by a quarter: append would
// double a small slice, and the index's size is its slices' capacity.
func insertAt[E any](s []E, i int, v E) []E {
	if len(s) == cap(s) {
		s = append(make([]E, 0, len(s)+len(s)/4+1), s...)
	}
	return slices.Insert(s, i, v)
}

// leaf returns the leaf that holds key, if any holds it.
func (x *keyIndex) leaf(key string) *keyNode {
	n := x.root
	for n != nil && n.kids != nil {
		i, found := slices.BinarySearch(n.keys, key)
		if found {
			i++
		}
		n = n.kids[i]
	}
	return n
}

// stored returns the index's copy of key, which is present.
func (x *keyIndex) stored(key string) string {
	n := x.leaf(key)
	i, _ := slices.BinarySearch(n.keys, key)
	return n.keys[i]
}

// delete removes key if it is present.
func (x *keyIndex) delete(key string) {
	n := x.leaf(key)
	if n == nil {
		return
	}
	if i, found := slices.BinarySearch(n.keys, key); found {
		n.keys = slices.Delete(n.keys, i, i+1)
		if x.n, x.dels = x.n-1, x.dels+1; x.dels > x.n {
			*x = x.clone()
		}
	}
}

// clone builds a copy of the index with full nodes.
func (x *keyIndex) clone() keyIndex {
	return sortedIndex(slices.AppendSeq(make([]string, 0, x.n), x.from("")))
}

// from iterates, in order, over the keys at or after key.
func (x *keyIndex) from(key string) iter.Seq[string] {
	return func(yield func(string) bool) { x.root.ascend(key, yield) }
}

// ascend yields the keys below n at or after from, and reports false once
// yield has.
func (n *keyNode) ascend(from string, yield func(string) bool) bool {
	if n == nil {
		return true
	}
	i, found := slices.BinarySearch(n.keys, from)
	if n.kids == nil {
		for _, key := range n.keys[i:] {
			if !yield(key) {
				return false
			}
		}
		return true
	}
	if found {
		i++
	}
	for _, kid := range n.kids[i:] {
		if !kid.ascend(from, yield) {
			return false
		}
	}
	return true
}
