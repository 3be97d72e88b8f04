package service

// The connection buffer bounds, for the backpressure test's stated bound.
const (
	SubscriberPushes = subscriberPushes
	PushFlushBytes   = pushFlushBytes
)
