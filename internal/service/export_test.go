package service

// The connection buffer bounds, for the backpressure test's stated bound.
const (
	SubscriberPushes = subscriberPushes
	PushFlushBytes   = pushFlushBytes
)

// PushesQueued returns how many pushes wait in the subscriber buffers of
// the server's connections, and how many those buffers hold. A publisher
// to a connection whose buffer is full parks on its next push.
func (sv *Server) PushesQueued() (queued, capacity int) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	for c := range sv.conns {
		if c.pumpStarted.Load() {
			queued += len(c.sub.c)
			capacity += cap(c.sub.c)
		}
	}
	return queued, capacity
}
