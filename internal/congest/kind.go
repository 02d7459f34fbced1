package congest

import (
	"fmt"
	"strings"
	"sync"
)

// KindID is an interned message-kind identifier. Kinds are interned
// process-wide by Kind, so protocol packages declare them once at init
// (`var KindFoo = congest.Kind("pkg.foo")`) and every hot-path structure —
// handler dispatch, cost counters — indexes by the small integer instead
// of hashing the name. Human-readable names reappear only at snapshot
// boundaries (Counters.ByKind, panics, reports).
type KindID int32

// kindReg is the process-wide intern table. Interning happens at package
// init and test setup, never on the per-message hot path, so a mutex is
// fine. Alongside each kind it interns the kind's class — the name's
// dot-prefix ("tree.up" -> "tree"), the granularity phase timelines report
// at — so class lookup is an array index, never string slicing, at
// observation time.
var kindReg = struct {
	sync.RWMutex
	names      []string
	index      map[string]KindID
	classOf    []int32 // per KindID: index into classNames
	classNames []string
	classIndex map[string]int32
}{index: make(map[string]KindID), classIndex: make(map[string]int32)}

// Kind interns a message-kind name and returns its stable ID. Repeated
// calls with the same name return the same ID. Names must be non-empty.
func Kind(name string) KindID {
	if name == "" {
		panic("congest: empty kind name")
	}
	kindReg.RLock()
	id, ok := kindReg.index[name]
	kindReg.RUnlock()
	if ok {
		return id
	}
	kindReg.Lock()
	defer kindReg.Unlock()
	if id, ok := kindReg.index[name]; ok {
		return id
	}
	id = KindID(len(kindReg.names))
	kindReg.names = append(kindReg.names, name)
	kindReg.index[name] = id
	class := name
	if dot := strings.IndexByte(name, '.'); dot > 0 {
		class = name[:dot]
	}
	cid, ok := kindReg.classIndex[class]
	if !ok {
		cid = int32(len(kindReg.classNames))
		kindReg.classNames = append(kindReg.classNames, class)
		kindReg.classIndex[class] = cid
	}
	kindReg.classOf = append(kindReg.classOf, cid)
	return id
}

// kindClassTable returns the class index (per KindID) and the class names.
// The returned slices are intern-table snapshots: existing elements are
// write-once, so reading them without the lock held is safe even if later
// Kind calls append.
func kindClassTable() (classOf []int32, classNames []string) {
	kindReg.RLock()
	defer kindReg.RUnlock()
	return kindReg.classOf, kindReg.classNames
}

// String returns the interned name, implementing fmt.Stringer.
func (k KindID) String() string {
	kindReg.RLock()
	defer kindReg.RUnlock()
	if k < 0 || int(k) >= len(kindReg.names) {
		return fmt.Sprintf("KindID(%d)", int32(k))
	}
	return kindReg.names[k]
}

// NumKinds returns the number of interned kinds.
func NumKinds() int {
	kindReg.RLock()
	defer kindReg.RUnlock()
	return len(kindReg.names)
}
