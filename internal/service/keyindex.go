package service

import (
	"iter"
	"slices"
)

// keyIndex maps keys to values in ascending key order: a B+-tree whose
// leaves hold the keys and their values side by side, O(log n) a get, a
// set, a delete or a seek. A delete leaves its leaf as it is; once more
// keys were deleted than remain, the tree is rebuilt (O(1) amortized).
// Nodes grow by a quarter (insertAt) and split into exact-size halves.
type keyIndex[V any] struct {
	root    *keyNode[V]
	n, dels int // keys, and deletes since the last build
}

// keyNode is a leaf (kids nil), where vals[i] is keys[i]'s value, or an
// inner node, where kids[i] holds the keys below keys[i] and at or above
// keys[i-1].
type keyNode[V any] struct {
	keys []string
	vals []V
	kids []*keyNode[V]
}

const maxNodeKeys = 64

// sortedIndex builds the index of sorted, distinct keys and their values
// in O(n), its leaves full and cut from keys and vals, which the index
// owns from then on.
func sortedIndex[V any](keys []string, vals []V) keyIndex[V] {
	var level []*keyNode[V]
	var firsts []string // each node's least key
	for i := 0; i < len(keys); i += maxNodeKeys {
		j := min(i+maxNodeKeys, len(keys))
		level, firsts = append(level, &keyNode[V]{keys: keys[i:j:j], vals: vals[i:j:j]}), append(firsts, keys[i])
	}
	for len(level) > 1 {
		var up []*keyNode[V]
		var upFirsts []string
		for i := 0; i < len(level); i += maxNodeKeys + 1 {
			j := min(i+maxNodeKeys+1, len(level))
			up = append(up, &keyNode[V]{keys: slices.Clone(firsts[i+1 : j]), kids: slices.Clone(level[i:j])})
			upFirsts = append(upFirsts, firsts[i])
		}
		level, firsts = up, upFirsts
	}
	if len(level) == 0 {
		return keyIndex[V]{}
	}
	return keyIndex[V]{root: level[0], n: len(keys)}
}

// get returns key's value.
func (x *keyIndex[V]) get(key string) (v V, ok bool) {
	if n, i, found := x.find(key); found {
		return n.vals[i], true
	}
	return v, false
}

// set writes key's value and returns the one it replaces, if any. An
// overwrite keeps the stored copy of key.
func (x *keyIndex[V]) set(key string, v V) (old V, existed bool) {
	if x.root == nil {
		x.root = &keyNode[V]{}
	}
	old, existed, sep, right := x.root.set(key, v)
	if right != nil {
		x.root = &keyNode[V]{keys: []string{sep}, kids: []*keyNode[V]{x.root, right}}
	}
	if !existed {
		x.n++
	}
	return old, existed
}

// set writes key's value below n. A node an insert overflows splits: set
// returns its new right half and the separator for the parent.
func (n *keyNode[V]) set(key string, v V) (old V, existed bool, sep string, right *keyNode[V]) {
	i, found := slices.BinarySearch(n.keys, key)
	switch {
	case n.kids == nil && found:
		old, n.vals[i] = n.vals[i], v
		return old, true, "", nil
	case n.kids == nil:
		n.keys, n.vals = insertAt(n.keys, i, key), insertAt(n.vals, i, v)
	default:
		if found {
			i++
		}
		if old, existed, sep, right = n.kids[i].set(key, v); right != nil {
			n.keys, n.kids = insertAt(n.keys, i, sep), insertAt(n.kids, i+1, right)
		}
	}
	if len(n.keys) <= maxNodeKeys {
		return old, existed, "", nil
	}
	half := len(n.keys) / 2
	sep, right = n.keys[half], &keyNode[V]{keys: slices.Clone(n.keys[half:])}
	if n.kids != nil { // the separator moves up
		right.keys, right.kids = right.keys[1:], slices.Clone(n.kids[half+1:])
		n.kids = slices.Clone(n.kids[:half+1])
	} else {
		right.vals, n.vals = slices.Clone(n.vals[half:]), slices.Clone(n.vals[:half])
	}
	n.keys = slices.Clone(n.keys[:half])
	return old, existed, sep, right
}

// insertAt inserts v at s[i], growing a full s by a quarter: append would
// double a small slice, and the index's size is its slices' capacity.
func insertAt[E any](s []E, i int, v E) []E {
	if len(s) == cap(s) {
		s = append(make([]E, 0, len(s)+len(s)/4+1), s...)
	}
	return slices.Insert(s, i, v)
}

// find returns the leaf that holds key, if any holds it, and key's place
// in it.
func (x *keyIndex[V]) find(key string) (n *keyNode[V], i int, found bool) {
	for n = x.root; n != nil && n.kids != nil; n = n.kids[i] {
		if i, found = slices.BinarySearch(n.keys, key); found {
			i++
		}
	}
	if n != nil {
		i, found = slices.BinarySearch(n.keys, key)
	}
	return n, i, found
}

// delete removes key and returns its value, if it is present.
func (x *keyIndex[V]) delete(key string) (old V, existed bool) {
	n, i, found := x.find(key)
	if !found {
		return old, false
	}
	old = n.vals[i]
	n.keys, n.vals = slices.Delete(n.keys, i, i+1), slices.Delete(n.vals, i, i+1)
	if x.n, x.dels = x.n-1, x.dels+1; x.dels > x.n {
		*x = x.clone()
	}
	return old, true
}

// clone builds a copy of the index with full nodes.
func (x *keyIndex[V]) clone() keyIndex[V] {
	return sortedIndex(x.root.appendTo(make([]string, 0, x.n), make([]V, 0, x.n)))
}

// appendTo appends the entries below n, in key order, to keys and vals: a
// leaf at a time, so a clone copies slices rather than entries.
func (n *keyNode[V]) appendTo(keys []string, vals []V) ([]string, []V) {
	if n == nil {
		return keys, vals
	}
	if n.kids == nil {
		return append(keys, n.keys...), append(vals, n.vals...)
	}
	for _, kid := range n.kids {
		keys, vals = kid.appendTo(keys, vals)
	}
	return keys, vals
}

// from iterates, in key order, over the entries at or after key. The loop
// body may overwrite an entry's value but must not insert or delete.
func (x *keyIndex[V]) from(key string) iter.Seq2[string, V] {
	return func(yield func(string, V) bool) { x.root.ascend(key, yield) }
}

// ascend yields the entries below n at or after from, and reports false
// once yield has.
func (n *keyNode[V]) ascend(from string, yield func(string, V) bool) bool {
	if n == nil {
		return true
	}
	i, found := slices.BinarySearch(n.keys, from)
	if n.kids == nil {
		for ; i < len(n.keys); i++ {
			if !yield(n.keys[i], n.vals[i]) {
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
