package serve

import (
	"container/list"
	"sync"
)

// memo is the response cache: canonical proposal bytes → response body
// bytes, LRU-bounded. It is what makes a repeated what-if query the
// product — a hit skips admission, leasing and the solve entirely — and
// what pins byte-determinism for identical proposals: every client asking
// the same question reads the same stored bytes.
type memoEntry struct {
	key  string
	body []byte
}

type memo struct {
	mu    sync.Mutex
	cap   int
	byKey map[string]*list.Element
	lru   *list.List
}

func newMemo(capacity int) *memo {
	return &memo{cap: capacity, byKey: make(map[string]*list.Element), lru: list.New()}
}

// get returns the cached body for the key. The returned slice is shared —
// callers only write it to the wire.
func (m *memo) get(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.byKey[key]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry).body, true
}

// put stores a body, evicting the least recently used entry past
// capacity. Storing an existing key keeps the first body; a recompute of
// the same proposal is byte-identical to it anyway.
func (m *memo) put(key string, body []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.byKey[key]; ok {
		m.lru.MoveToFront(el)
		return
	}
	m.byKey[key] = m.lru.PushFront(&memoEntry{key: key, body: body})
	for m.lru.Len() > m.cap {
		el := m.lru.Back()
		m.lru.Remove(el)
		delete(m.byKey, el.Value.(*memoEntry).key)
	}
}

func (m *memo) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byKey = make(map[string]*list.Element)
	m.lru.Init()
}
