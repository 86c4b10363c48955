package wsn

import (
	"fmt"

	"github.com/sid-wsn/sid/internal/obs"
)

// Reliable transport: a per-hop stop-and-wait ARQ layered under the unicast
// and multi-hop send paths. Every data frame carries a hop-unique ARQ ID;
// the receiver acknowledges it (ACKs ride the same lossy channel and cost
// the same energy as any frame) and suppresses retransmitted duplicates.
// The sender retransmits on a deterministic exponential-backoff timer with
// jitter drawn from its own RNG stream — enabling the transport therefore
// never perturbs the radio loss sequence of fire-and-forget runs — and
// gives up after a bounded number of retransmissions, counting the drop in
// Stats.ReliableDropped. This is §IV-C's answer to lost reports: the four
// timestamp reports the speed budget assumes (Fig. 12) actually arrive.

// The retransmission timer, tuned for the default radio (5 ms links).
const (
	// arqAckTimeout is the wait before the first retransmission, in
	// seconds. It must exceed one frame round trip (2·BaseDelay plus
	// jitter tails).
	arqAckTimeout = 0.06
	// arqBackoff multiplies the timeout after every retransmission;
	// spacing retries out lets the transport ride out burst losses that
	// defeat blind same-instant retries.
	arqBackoff = 2.0
	// arqMaxTimeout caps the backed-off timeout, in seconds.
	arqMaxTimeout = 1.0
	// arqJitterFrac randomizes each timeout by ±arqJitterFrac·timeout
	// using the dedicated "wsn.arq" stream, de-synchronizing
	// retransmission storms deterministically.
	arqJitterFrac = 0.2
)

// ReliableConfig parametrizes the per-hop ACK/retransmission transport.
// The zero value disables it.
type ReliableConfig struct {
	// Enabled turns the acknowledged transport on for Unicast, SendToRoot
	// and SendMultiHop (floods stay fire-and-forget: invites are
	// redundant by construction).
	Enabled bool
	// MaxRetrans bounds the retransmissions per hop after the first
	// attempt; the hop is abandoned (and counted in ReliableDropped) when
	// they are exhausted.
	MaxRetrans int
}

// DefaultReliableConfig returns an enabled transport with 4
// retransmissions: the first after 60 ms, doubling to a cap of 1 s, each
// with ±20% jitter.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{Enabled: true, MaxRetrans: 4}
}

func (c ReliableConfig) validate() error {
	if c.Enabled && c.MaxRetrans < 0 {
		return fmt.Errorf("wsn: reliable MaxRetrans must be non-negative, got %d", c.MaxRetrans)
	}
	return nil
}

// arqTimeout returns the backed-off, jittered wait before retransmission
// k+1 (k = attempts already made beyond the first).
func (w *Network) arqTimeout(k int) float64 {
	t := arqAckTimeout
	for i := 0; i < k; i++ {
		t *= arqBackoff
		if t >= arqMaxTimeout {
			t = arqMaxTimeout
			break
		}
	}
	return t * (1 + arqJitterFrac*(2*w.arqRNG.Float64()-1))
}

// sendReliable moves msg over the from -> to link with the stop-and-wait
// ARQ and hands it to cont exactly once on delivery. Loss of all attempts
// is counted in Stats.ReliableDropped; there is no failure callback — the
// upper layers are timeout-driven (collection windows, failover), not
// completion-driven, exactly like a real WSN stack.
func (w *Network) sendReliable(from, to *Node, msg Message, cont func(*Node, Message)) {
	w.arqSeq++
	id := w.arqSeq
	msg.ARQ = id
	w.pending[id] = struct{}{}
	rc := w.Radio.Reliable
	var attempt func(k int)
	attempt = func(k int) {
		if _, waiting := w.pending[id]; !waiting {
			return // ACKed while the timer was armed
		}
		if !from.Alive() {
			delete(w.pending, id)
			// As in the give-up path below, a drop is only real data loss
			// when the receiver never consumed the frame; a dead sender that
			// merely missed its ACKs did deliver.
			_, got := to.seenARQ[id]
			if !got {
				w.ctr.relDropped.Inc()
			}
			if w.col.Journaling() {
				w.col.Emit(w.Sched.Now(), obs.KindArqDrop, obs.ArqDrop{
					From: int(from.ID), To: int(to.ID), ARQ: id,
					Received: got, Reason: "sender-dead", Trace: msg.Trace,
				})
			}
			return
		}
		if k > 0 {
			w.ctr.retrans.Inc()
		}
		w.hop(from, to, msg, func(_ *Node, msg Message) {
			_, dup := to.seenARQ[id]
			to.seenARQ[id] = struct{}{}
			w.sendAck(to, from, id)
			if !dup {
				w.ctr.relDelivered.Inc()
				cont(to, msg)
			}
		})
		wait := w.arqTimeout(k)
		if k > 0 && w.col.Journaling() {
			w.col.Emit(w.Sched.Now(), obs.KindArqRetransmit, obs.ArqHop{
				From: int(from.ID), To: int(to.ID), ARQ: id, Attempt: k,
				Wait: wait, Trace: msg.Trace,
			})
		}
		if k < rc.MaxRetrans {
			_ = w.Sched.After(wait, func() { attempt(k + 1) })
			return
		}
		_ = w.Sched.After(wait, func() {
			if _, waiting := w.pending[id]; waiting {
				delete(w.pending, id)
				// Count a drop only if the receiver never saw the frame:
				// when only the ACKs were lost the payload did arrive, and
				// the simulation's omniscient stats should say so.
				_, got := to.seenARQ[id]
				if !got {
					w.ctr.relDropped.Inc()
				}
				if w.col.Journaling() {
					w.col.Emit(w.Sched.Now(), obs.KindArqDrop, obs.ArqDrop{
						From: int(from.ID), To: int(to.ID), ARQ: id,
						Received: got, Reason: "retrans-exhausted", Trace: msg.Trace,
					})
				}
			}
		})
	}
	attempt(0)
}

// sendAck transmits one acknowledgment frame from -> to. ACKs are
// fire-and-forget (a lost ACK just costs one retransmission, which the
// receiver's duplicate suppression absorbs).
func (w *Network) sendAck(from, to *Node, id uint64) {
	w.ctr.acks.Inc()
	if w.col.Journaling() {
		w.col.Emit(w.Sched.Now(), obs.KindArqAck, obs.ArqHop{
			From: int(from.ID), To: int(to.ID), ARQ: id,
		})
	}
	w.hop(from, to, Message{ARQ: id}, func(*Node, Message) { delete(w.pending, id) })
}
