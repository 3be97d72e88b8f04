// Package wire defines horse-wire, the versioned JSON protocol of the
// horsed simulation service: newline-delimited JSON frames over a byte
// stream (unix socket or TCP), carrying request/response calls plus
// server-push streams of progress events and finalized flow records.
//
// The protocol is explicitly versioned from day one so it can evolve
// without breaking deployed clients. A connection opens with a Hello
// handshake — the client offers the versions it speaks, the server
// answers with the highest mutually supported one — and every later
// frame is interpreted under the negotiated version. Version v1
// ("horse-wire/v1") defines the methods Submit, Status, List, Cancel and
// Retire, the Watch subscription, and the Progress / Record / Done push
// events. Checked-in fixtures under testdata/v1 pin the v1 encoding; the
// decode-compat test replays them so a field rename or type change in
// this package cannot silently break the deployed wire format.
//
// Frames on the wire are one JSON object per line. Three shapes share
// the Frame envelope:
//
//	request:  {"v":"horse-wire/v1","id":7,"method":"Submit","params":{...}}
//	response: {"v":"horse-wire/v1","id":7,"result":{...}}        (or "error")
//	event:    {"v":"horse-wire/v1","event":"Record","session":"s1","data":{...}}
//
// Events carry no id — they are server-initiated pushes bound to a
// session the connection subscribed to (via Watch, or a Submit with
// Stream set).
//
// Everything is encoded and decoded with encoding/json except the Record
// event frame, the one message whose count scales with the simulation.
// AppendRecordFrame writes it without reflection, byte for byte what
// json.Marshal would write, and the server emits Record frames only in
// that one canonical form. Client recognises the canonical form with a
// hand-written scanner and hands any other line — other field order,
// escapes, whitespace, unknown or missing fields, every other kind of
// frame — to encoding/json, so a peer that writes Record frames some
// other valid way is decoded just the same, only slower. The canonical
// form is therefore not part of the protocol: clients must not depend on
// it. FuzzRecordFrameCodec holds both halves to encoding/json.
//
// A Stream reports an event it cannot decode as a *DecodeError rather
// than skipping it, so a client never miscounts records silently.
package wire

import (
	"encoding/json"
	"fmt"
)

// Protocol versions, oldest first. Negotiation picks the highest mutual
// entry of this list; appending a new version here (and handling it in
// the daemon) is the whole upgrade story for a backward-compatible
// change.
const (
	// V1 is the first horse-wire protocol version.
	V1 = "horse-wire/v1"
)

// Versions lists every protocol version this package speaks, oldest
// first.
var Versions = []string{V1}

// Negotiate picks the protocol version for a connection: the highest
// version (in Versions order) present in both offer lists. It returns a
// *VersionError naming both sides' offers when there is no mutual
// version.
func Negotiate(client, server []string) (string, error) {
	rank := make(map[string]int, len(Versions))
	for i, v := range Versions {
		rank[v] = i + 1
	}
	inServer := make(map[string]bool, len(server))
	for _, v := range server {
		inServer[v] = true
	}
	best, bestRank := "", 0
	for _, v := range client {
		if r := rank[v]; r > bestRank && inServer[v] {
			best, bestRank = v, r
		}
	}
	if best == "" {
		return "", &VersionError{Client: client, Server: server}
	}
	return best, nil
}

// VersionError reports a failed version negotiation.
type VersionError struct {
	Client []string
	Server []string
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: no mutual protocol version (client %v, server %v)", e.Client, e.Server)
}

// Methods of the request/response surface.
const (
	// MethodHello opens every connection: HelloParams → Welcome.
	MethodHello = "Hello"
	// MethodSubmit submits a session: SubmitParams → SessionStatus.
	MethodSubmit = "Submit"
	// MethodStatus inspects one session: SessionParams → SessionStatus.
	MethodStatus = "Status"
	// MethodList lists every session: no params → ListResult.
	MethodList = "List"
	// MethodCancel cancels a queued or running session: SessionParams →
	// SessionStatus (the post-cancel state).
	MethodCancel = "Cancel"
	// MethodRetire removes a terminal session: SessionParams → SessionStatus.
	MethodRetire = "Retire"
	// MethodWatch subscribes the connection to a session's push events:
	// SessionParams → SessionStatus (the state at subscription).
	MethodWatch = "Watch"
)

// Server-push event names.
const (
	// EventProgress carries a ProgressEvent.
	EventProgress = "Progress"
	// EventRecord carries one finalized flow Record.
	EventRecord = "Record"
	// EventDone carries a DoneEvent and is the last event of a session's
	// stream on this connection.
	EventDone = "Done"
)

// Frame is the one envelope of the protocol: a request (ID+Method), a
// response (ID+Result|Error), or a push event (Event+Session+Data).
type Frame struct {
	// V is the protocol version (stamped on every frame after the
	// handshake; the Hello request itself carries it too, set to the
	// newest version the client speaks).
	V string `json:"v,omitempty"`
	// ID correlates a response to its request. Events carry none.
	ID uint64 `json:"id,omitempty"`
	// Method is set on requests.
	Method string `json:"method,omitempty"`
	// Params is the request payload.
	Params json.RawMessage `json:"params,omitempty"`
	// Result is the success payload of a response.
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure payload of a response.
	Error *Error `json:"error,omitempty"`
	// Event is set on server pushes (EventProgress/EventRecord/EventDone).
	Event string `json:"event,omitempty"`
	// Session is the subject session of an event.
	Session string `json:"session,omitempty"`
	// Data is the event payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// Error codes. Codes are part of the wire contract: clients branch on
// them, so they only ever grow.
const (
	// CodeBadRequest rejects a malformed frame or parameter set.
	CodeBadRequest = "bad-request"
	// CodeBadSpec rejects a session spec that failed validation or
	// engine construction (the message carries the *BuildError detail).
	CodeBadSpec = "bad-spec"
	// CodeVersion rejects a handshake with no mutual protocol version.
	CodeVersion = "version-mismatch"
	// CodeNotFound names an unknown session.
	CodeNotFound = "not-found"
	// CodeQueueFull rejects a submission when the admission queue is at
	// capacity.
	CodeQueueFull = "queue-full"
	// CodeTooLarge rejected a session whose worker cost exceeded the
	// daemon's total budget. Every session now costs one worker, so the
	// daemon no longer sends it; the code stays reserved in v1.
	CodeTooLarge = "too-large"
	// CodeNotRetirable rejects retiring a session that is still queued
	// or running (cancel it first).
	CodeNotRetirable = "not-retirable"
	// CodeDraining rejects submissions while the daemon shuts down.
	CodeDraining = "draining"
	// CodeInternal reports a server-side failure.
	CodeInternal = "internal"
)

// Error is the typed failure payload of a response.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("wire: %s: %s", e.Code, e.Message) }

// HelloParams opens a connection: the versions the client speaks.
type HelloParams struct {
	Versions []string `json:"versions"`
}

// Welcome answers a Hello: the negotiated version and a free-form server
// identity string.
type Welcome struct {
	Version string `json:"version"`
	Server  string `json:"server,omitempty"`
}

// SubmitParams submits one simulation session.
type SubmitParams struct {
	// Name is an optional human label; the server assigns the session ID.
	Name string `json:"name,omitempty"`
	// Spec is the full serialized simulation: topology, workload,
	// scenario, builder options, horizon.
	Spec SessionSpec `json:"spec"`
	// Stream subscribes the submitting connection to the session's push
	// events and streams finalized flow records over the wire instead of
	// retaining them in server memory — the O(1)-memory path for
	// flow-engine sessions. Without Stream, records are retained and
	// replayed by a later Watch.
	Stream bool `json:"stream,omitempty"`
}

// SessionParams names a session (Status/Cancel/Retire/Watch).
type SessionParams struct {
	Session string `json:"session"`
}

// Session states on the wire.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
	StateFailed   = "failed"
)

// SessionStatus is the wire view of one session.
type SessionStatus struct {
	Session string `json:"session"`
	Name    string `json:"name,omitempty"`
	State   string `json:"state"`
	// Fidelity echoes the spec's engine granularity.
	Fidelity string `json:"fidelity"`
	// Workers is always 1: every session runs on one goroutine (a v1
	// field, kept so v1 clients keep decoding it).
	Workers int `json:"workers"`
	// Stream reports whether records stream to watchers instead of being
	// retained server-side.
	Stream bool `json:"stream,omitempty"`
	// NowNs and Events are the latest progress snapshot (virtual ns,
	// kernel events dispatched).
	NowNs  int64  `json:"now_ns,omitempty"`
	Events uint64 `json:"events,omitempty"`
	// Error carries the failure (or cancellation) detail of a terminal
	// session.
	Error string `json:"error,omitempty"`
	// Summary is set once the session is terminal.
	Summary *Summary `json:"summary,omitempty"`
}

// ListResult is the response of List, in submission order.
type ListResult struct {
	Sessions []SessionStatus `json:"sessions"`
}

// ProgressEvent is the payload of EventProgress.
type ProgressEvent struct {
	NowNs  int64  `json:"now_ns"`
	Events uint64 `json:"events"`
}

// DoneEvent is the payload of EventDone: the terminal state and summary
// of the session (partial but consistent when canceled).
type DoneEvent struct {
	State   string   `json:"state"`
	Error   string   `json:"error,omitempty"`
	Summary *Summary `json:"summary,omitempty"`
}
