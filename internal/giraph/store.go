package giraph

import (
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/storage"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// store is one offloadable object group: a partition's out-edge arrays or
// one of its message stores.
type store struct {
	dense   bool
	h       *vm.Handle
	objects int64
	words   int64

	offloaded bool
	blob      storage.BlobID
	rebuild   func() error
	lastUse   int64
}

// oocScheduler is Giraph's out-of-core scheduler: it monitors heap
// pressure after processing each partition and offloads the least
// recently used stores to the device (§5).
type oocScheduler struct {
	e     *Engine
	dev   *storage.Device
	blobs *storage.ByteStore
	tick  int64
}

func newOOCScheduler(e *Engine, dev *storage.Device, cacheBytes int64) *oocScheduler {
	// tick starts at 1 so untouched stores (lastUse 0) are immediately
	// eligible victims during graph loading.
	return &oocScheduler{e: e, dev: dev, blobs: storage.NewByteStore(dev, cacheBytes), tick: 1}
}

// touch marks a store recently used.
func (o *oocScheduler) touch(st *store) {
	o.tick++
	st.lastUse = o.tick
}

// heapPressure returns used/capacity of H1.
func (o *oocScheduler) heapPressure() float64 {
	used, capacity := o.e.RT.HeapUsed()
	if capacity == 0 {
		return 0
	}
	return float64(used) / float64(capacity)
}

// maybeOffload serializes LRU stores to the device while heap usage
// exceeds the high-water mark. A failed offload (the serializer's
// temporaries ran out of heap) ends the run with its error.
func (o *oocScheduler) maybeOffload() error {
	for o.heapPressure() > o.e.Conf.OOCHighWater {
		victim := o.pickVictim()
		if victim == nil {
			return nil
		}
		if err := o.offload(victim); err != nil {
			return err
		}
	}
	return nil
}

// pickVictim returns the least recently used resident store.
func (o *oocScheduler) pickVictim() *store {
	var victim *store
	for _, pt := range o.e.partitions {
		for _, st := range []*store{pt.edges, pt.inMsgs} {
			if st == nil || st.offloaded || st.h == nil || st.rebuild == nil {
				continue
			}
			if st.words < 64 {
				continue // not worth the I/O
			}
			if st.lastUse == o.tick {
				continue // in use by the current wave
			}
			if victim == nil || st.lastUse < victim.lastUse {
				victim = st
			}
		}
	}
	return victim
}

// offload serializes st to the device and releases its heap copy.
func (o *oocScheduler) offload(st *store) error {
	clock := o.e.RT.Clock()
	prev := clock.SetContext(simclock.SerDesIO)
	defer clock.SetContext(prev)
	sz, err := o.e.Ser.Serialize(st.h.Addr())
	if err != nil {
		return err
	}
	st.blob = o.blobs.Put(sz)
	o.e.RT.Release(st.h)
	st.h = nil
	st.offloaded = true
	o.e.Stats.OOCOffloads++
	// A full GC is not forced; the next natural collection reclaims the
	// released objects.
	return nil
}

// reload brings an offloaded store back on heap: device read,
// deserialization charges, and graph reconstruction.
func (o *oocScheduler) reload(st *store) error {
	clock := o.e.RT.Clock()
	prev := clock.SetContext(simclock.SerDesIO)
	defer clock.SetContext(prev)
	o.blobs.Get(st.blob)
	if err := o.e.Ser.ChargeDeserialize(st.objects, st.words); err != nil {
		return err
	}
	if err := st.rebuild(); err != nil {
		return err
	}
	o.blobs.Delete(st.blob)
	st.offloaded = false
	o.e.Stats.OOCReloads++
	o.touch(st)
	return nil
}

// forget drops any device copy of st.
func (o *oocScheduler) forget(st *store) {
	if st.offloaded {
		o.blobs.Delete(st.blob)
		st.offloaded = false
	}
}
