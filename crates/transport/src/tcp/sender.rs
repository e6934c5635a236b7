//! The TCP sender state machine.

use super::profile::CcProfile;
use crate::segment::{Segment, SegmentFlags};
use mmt_netsim::{Context, Node, Packet, PortId, RttEstimator, Time, TimerToken};
use std::collections::BTreeMap;

const TOKEN_RTO: TimerToken = 1;
const TOKEN_SEND: TimerToken = 2;

/// Integer cube root: the largest `r` with `r³ ≤ n`.
fn icbrt(n: u128) -> u64 {
    let mut lo: u128 = 0;
    let mut hi: u128 = 1 << 43;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        match mid.checked_mul(mid).and_then(|s| s.checked_mul(mid)) {
            Some(cube) if cube <= n => lo = mid,
            _ => hi = mid - 1,
        }
    }
    lo as u64
}

/// Counters and timings exposed after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TcpSenderStats {
    /// Data segments sent (including retransmissions).
    pub segments_sent: u64,
    /// Fast retransmissions triggered.
    pub fast_retransmits: u64,
    /// RTO retransmissions triggered.
    pub rto_retransmits: u64,
    /// Bytes acknowledged.
    pub bytes_acked: u64,
    /// When the last byte was acknowledged (flow-completion time).
    pub completed_at: Option<Time>,
    /// Smoothed RTT estimate at completion, ns.
    pub srtt_ns: u64,
}

/// A TCP sender transmitting a stream of application messages.
///
/// Messages become available at their scheduled creation times; the stream
/// is their concatenation (message delineation lives at the receiver,
/// §4.1 point 1a). For a bulk transfer, schedule every message at time
/// zero.
pub struct TcpSender {
    profile: CcProfile,
    flow: u64,
    message_len: usize,
    /// Creation time of each message, non-decreasing.
    schedule: Vec<Time>,
    total_bytes: u64,

    // Connection state. All congestion arithmetic is integer (bytes and
    // nanoseconds, kernel-style fixed point) so runs are bit-identical
    // across platforms — no float in the digest-critical path.
    established: bool,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: u64,
    /// Reno congestion-avoidance remainder: accumulated `mss·acked`
    /// product not yet converted into window bytes (the integer
    /// equivalent of fractional cwnd growth, like the kernel's
    /// `snd_cwnd_cnt`).
    cwnd_acc: u64,
    ssthresh: u64,
    peer_window: u64,
    dup_acks: u32,
    /// Fast-recovery guard: ignore further dupack halvings until
    /// `snd_una` passes this point.
    recovery_until: u64,

    // CUBIC state (RFC 8312): window at the last loss, the epoch, and
    // the plateau time K in microseconds (0 when slow start exited
    // without loss).
    cubic_wmax: u64,
    cubic_epoch: Option<Time>,
    cubic_k_us: u64,

    // RTT estimation / RTO (RFC 6298; floor, initial value and backoff
    // are this sender's own).
    rtt: RttEstimator,
    /// Minimum RTT observed (HyStart baseline).
    min_rtt_ns: u64,
    rto: Time,
    rto_deadline: Option<Time>,
    /// Send time of in-flight segments (seq → (sent_at, was_retransmitted)).
    sent_times: BTreeMap<u64, (Time, bool)>,
    /// SACK scoreboard: received ranges above `snd_una` reported by the
    /// receiver (start → end, merged).
    sacked: BTreeMap<u64, u64>,
    /// Segments already retransmitted in the current recovery epoch.
    hole_retx: std::collections::BTreeSet<u64>,

    // Host pacing.
    next_send_at: Time,
    send_timer_armed: bool,

    /// Index of the next message not yet fully enqueued (for wake-ups).
    next_msg: usize,

    /// Counters.
    pub stats: TcpSenderStats,
}

impl TcpSender {
    /// A sender for `message_count` messages of `message_len` bytes, each
    /// created at the given schedule time. Use [`TcpSender::bulk`] for a
    /// one-shot transfer.
    pub fn new(
        profile: CcProfile,
        flow: u64,
        message_len: usize,
        schedule: Vec<Time>,
    ) -> TcpSender {
        assert!(message_len > 0 && !schedule.is_empty());
        assert!(
            schedule.windows(2).all(|w| w[1] >= w[0]),
            "schedule must be non-decreasing"
        );
        let total_bytes = (message_len as u64) * (schedule.len() as u64);
        let cwnd = profile.mss as u64 * u64::from(profile.init_cwnd_segments);
        TcpSender {
            profile,
            flow,
            message_len,
            schedule,
            total_bytes,
            established: false,
            snd_una: 0,
            snd_nxt: 0,
            cwnd,
            cwnd_acc: 0,
            ssthresh: u64::MAX / 4,
            peer_window: profile.max_window_bytes,
            dup_acks: 0,
            recovery_until: 0,
            cubic_wmax: 0,
            cubic_epoch: None,
            cubic_k_us: 0,
            rtt: RttEstimator::new(),
            min_rtt_ns: u64::MAX,
            rto: Time::from_millis(200),
            rto_deadline: None,
            sent_times: BTreeMap::new(),
            sacked: BTreeMap::new(),
            hole_retx: std::collections::BTreeSet::new(),
            next_send_at: Time::ZERO,
            send_timer_armed: false,
            next_msg: 0,
            stats: TcpSenderStats::default(),
        }
    }

    /// A bulk transfer of `total_bytes` (rounded up to whole messages of
    /// `message_len`), all available at time zero.
    pub fn bulk(profile: CcProfile, flow: u64, total_bytes: u64, message_len: usize) -> TcpSender {
        let messages = total_bytes.div_ceil(message_len as u64) as usize;
        TcpSender::new(profile, flow, message_len, vec![Time::ZERO; messages])
    }

    /// Whether every byte has been acknowledged.
    pub fn is_complete(&self) -> bool {
        self.stats.completed_at.is_some()
    }

    /// Bytes of application data available for sending at `now`.
    fn available_bytes(&self, now: Time) -> u64 {
        // Messages with creation time <= now. The schedule is sorted, so
        // scan from the cursor.
        let mut n = self.next_msg;
        while n < self.schedule.len() && self.schedule[n] <= now {
            n += 1;
        }
        (n as u64) * (self.message_len as u64)
    }

    fn effective_window(&self) -> u64 {
        self.cwnd
            .min(self.peer_window)
            .min(self.profile.max_window_bytes)
    }

    /// Bytes the SACK scoreboard says have left the network.
    fn sacked_bytes(&self) -> u64 {
        self.sacked.iter().map(|(&s, &e)| e - s).sum()
    }

    /// RFC 6675-style pipe estimate during recovery: bytes still believed
    /// in flight = data above the SACK high-water mark plus this epoch's
    /// retransmissions. UnSACKed holes below the mark count as lost, not
    /// in flight.
    fn pipe_estimate(&self) -> u64 {
        let high = self
            .sacked
            .iter()
            .next_back()
            .map(|(_, &e)| e)
            .unwrap_or(self.snd_una)
            .max(self.snd_una);
        let tail = self.snd_nxt.saturating_sub(high);
        tail + (self.hole_retx.len() as u64) * (self.profile.mss as u64)
    }

    fn arm_rto(&mut self, ctx: &mut Context<'_>) {
        let deadline = ctx.now() + self.rto;
        self.rto_deadline = Some(deadline);
        ctx.set_timer(self.rto, TOKEN_RTO);
    }

    fn send_segment(&mut self, ctx: &mut Context<'_>, seq: u64, len: u32, retransmit: bool) {
        let seg = Segment::data(self.flow, seq, len);
        ctx.send(0, Packet::with_flow(seg.encode(), self.flow));
        self.stats.segments_sent += 1;
        self.sent_times
            .entry(seq)
            .and_modify(|e| *e = (ctx.now(), true))
            .or_insert((ctx.now(), retransmit));
        if self.rto_deadline.is_none() {
            self.arm_rto(ctx);
        }
    }

    /// Send as much new data as the window, pacing, and available bytes
    /// allow.
    fn try_send(&mut self, ctx: &mut Context<'_>) {
        if !self.established {
            return;
        }
        let now = ctx.now();
        let available = self.available_bytes(now);
        // Advance the message cursor for wake-up scheduling.
        while self.next_msg < self.schedule.len() && self.schedule[self.next_msg] <= now {
            self.next_msg += 1;
        }
        loop {
            // In recovery the RFC 6675 pipe governs; otherwise plain
            // outstanding bytes.
            let inflight = if self.snd_una < self.recovery_until {
                self.pipe_estimate()
            } else {
                (self.snd_nxt - self.snd_una).saturating_sub(self.sacked_bytes())
            };
            if inflight >= self.effective_window() {
                break;
            }
            if self.snd_nxt >= available {
                // Nothing to send yet; wake when the next message arrives.
                if self.next_msg < self.schedule.len() {
                    let wake = self.schedule[self.next_msg];
                    if wake > now {
                        ctx.set_timer(wake - now, TOKEN_SEND);
                        self.send_timer_armed = true;
                    }
                }
                break;
            }
            // Host pacing: one segment per overhead interval.
            if self.next_send_at > now {
                if !self.send_timer_armed {
                    ctx.set_timer(self.next_send_at - now, TOKEN_SEND);
                    self.send_timer_armed = true;
                }
                break;
            }
            let window_room = self.effective_window() - inflight;
            let len = (self.profile.mss as u64)
                .min(available - self.snd_nxt)
                .min(window_room) as u32;
            if len == 0 {
                break;
            }
            let seq = self.snd_nxt;
            self.snd_nxt += u64::from(len);
            self.send_segment(ctx, seq, len, false);
            // Pacing: host cost per segment, plus (once an RTT estimate
            // exists) a Linux-sch_fq-style rate cap of 2·cwnd/srtt in slow
            // start and 1.2·cwnd/srtt afterwards, which keeps window
            // growth from dumping multi-megabyte bursts into drop-tail
            // queues.
            let mut gap_ns = self.profile.per_segment_overhead_ns;
            if self.rtt.srtt_ns() > 0 {
                // pace_ns = len·srtt / (factor·cwnd), factor 2 in slow
                // start and 6/5 afterwards, computed in u128 so the
                // len·srtt product cannot overflow.
                let num = u128::from(len) * u128::from(self.rtt.srtt_ns());
                let cwnd = u128::from(self.cwnd.max(1));
                let pace_ns = if self.cwnd < self.ssthresh {
                    num / (2 * cwnd)
                } else {
                    num * 5 / (6 * cwnd)
                } as u64;
                gap_ns = gap_ns.max(pace_ns);
            }
            self.next_send_at = now.max(self.next_send_at) + Time::from_nanos(gap_ns);
        }
    }

    /// Congestion-avoidance growth after `newly` acked bytes.
    fn grow_window(&mut self, now: Time, newly: u64) {
        let mss = self.profile.mss as u64;
        if self.cwnd < self.ssthresh {
            self.cwnd += newly; // slow start (ABC-style)
            return;
        }
        match self.profile.cc {
            super::profile::CcAlgo::Reno => {
                // cwnd += mss²/cwnd per mss acked, i.e. mss·newly/cwnd
                // bytes per ack. The sub-byte remainder accumulates in
                // `cwnd_acc` so growth is exact over time (the kernel's
                // `snd_cwnd_cnt` in byte units).
                self.cwnd_acc += mss * newly;
                let add = self.cwnd_acc / self.cwnd.max(1);
                self.cwnd_acc -= add * self.cwnd.max(1);
                self.cwnd += add;
            }
            super::profile::CcAlgo::Cubic => {
                // W(t) = C(t-K)³ + Wmax with C = 0.4, windows in bytes and
                // t in integer microseconds:
                //   target = Wmax + 2·mss·d_us³ / (5·10¹⁸),  d_us = t - K.
                if self.cubic_wmax == 0 {
                    // Slow start exited without a loss (HyStart): there is
                    // no plateau to approach — start convex growth from
                    // here immediately (K = 0, RFC 8312 §4.8 behaviour).
                    self.cubic_wmax = self.cwnd;
                    self.cubic_epoch = Some(now);
                    self.cubic_k_us = 0;
                }
                let epoch = *self.cubic_epoch.get_or_insert(now);
                let t_us = (now - epoch).as_nanos() / 1_000;
                let d_us = t_us as i128 - i128::from(self.cubic_k_us);
                let cubic = 2 * i128::from(mss) * d_us.pow(3) / 5_000_000_000_000_000_000;
                let target = (i128::from(self.cubic_wmax) + cubic).max(i128::from(2 * mss));
                // Never shrink here and never more than double per update.
                let capped = target.min(i128::from(self.cwnd * 2)) as u64;
                self.cwnd = self.cwnd.max(capped);
            }
        }
    }

    /// Multiplicative decrease on loss detection.
    fn on_loss_event(&mut self, now: Time, flight: u64) {
        let mss = self.profile.mss as u64;
        match self.profile.cc {
            super::profile::CcAlgo::Reno => {
                self.ssthresh = (flight / 2).max(2 * mss);
            }
            super::profile::CcAlgo::Cubic => {
                // β = 0.7, C = 0.4 (RFC 8312). W_max = congestion window
                // at loss detection; the plateau time in microseconds is
                //   K = cbrt(Wmax·(1-β)/(C·mss)) s
                //     = cbrt(3·Wmax·10¹⁸ / (4·mss)) µs.
                let _ = flight;
                self.cubic_wmax = self.cwnd.max(2 * mss);
                self.cubic_epoch = Some(now);
                self.cubic_k_us = icbrt(
                    u128::from(self.cubic_wmax) * 3_000_000_000_000_000_000 / u128::from(4 * mss),
                );
                self.ssthresh = (self.cubic_wmax * 7 / 10).max(2 * mss);
            }
        }
        self.cwnd = self.ssthresh;
        self.cwnd_acc = 0;
    }

    /// The un-backed-off RTO from current estimates (RFC 6298): 200 ms
    /// before the first sample, floored at 1 ms after it.
    fn base_rto(&self) -> Time {
        self.rtt
            .rto()
            .map_or(Time::from_millis(200), |rto| rto.max(Time::from_millis(1)))
    }

    fn update_rtt(&mut self, sample: Time) {
        let s = sample.as_nanos();
        self.min_rtt_ns = self.min_rtt_ns.min(s);
        // HyStart-style delay-based slow-start exit (what CUBIC kernels
        // ship): once queueing delay builds visibly above the propagation
        // floor (25% + 4 ms), stop doubling — long before the drop-tail
        // queue overflows catastrophically.
        if self.cwnd < self.ssthresh
            && self.min_rtt_ns < u64::MAX
            && s > self.min_rtt_ns + self.min_rtt_ns / 4 + 4_000_000
        {
            self.ssthresh = self.cwnd;
        }
        self.rtt.observe(sample);
        self.rto = self.base_rto();
    }

    /// Merge a SACK block into the scoreboard.
    fn merge_sack(&mut self, start: u64, end: u64) {
        if end <= start {
            return;
        }
        let mut start = start;
        let mut end = end;
        // Absorb overlapping/adjacent ranges.
        let overlapping: Vec<u64> = self
            .sacked
            .range(..=end)
            .filter(|&(&_s, &e)| e >= start)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let Some(e) = self.sacked.remove(&s) else {
                continue; // unreachable: keys collected from the map above
            };
            start = start.min(s);
            end = end.max(e);
        }
        self.sacked.insert(start, end);
    }

    fn is_sacked(&self, seq: u64) -> bool {
        self.sacked
            .range(..=seq)
            .next_back()
            .is_some_and(|(&s, &e)| seq >= s && seq < e)
    }

    /// Retransmit every known hole (unSACKed in-flight segment below the
    /// highest SACKed byte) that has not been retransmitted this epoch.
    fn retransmit_holes(&mut self, ctx: &mut Context<'_>) {
        let Some((_, &max_sacked)) = self.sacked.iter().next_back() else {
            return;
        };
        // Self-clocked recovery: only retransmit while the pipe estimate
        // leaves window room, so recovery never re-floods the queue that
        // just overflowed. Incoming SACKs shrink the pipe and release the
        // next batch.
        let mss = self.profile.mss as u64;
        let room = self.effective_window().saturating_sub(self.pipe_estimate());
        let budget = ((room / mss) as usize).min(64);
        if budget == 0 {
            return;
        }
        let holes: Vec<u64> = self
            .sent_times
            .range(self.snd_una..max_sacked)
            .map(|(&seq, _)| seq)
            .filter(|&seq| !self.is_sacked(seq) && !self.hole_retx.contains(&seq))
            .take(budget)
            .collect();
        for seq in holes {
            let len = (self.profile.mss as u64).min(self.total_bytes - seq) as u32;
            self.send_segment(ctx, seq, len, true);
            self.hole_retx.insert(seq);
        }
    }

    fn on_ack(&mut self, ctx: &mut Context<'_>, seg: Segment) {
        self.peer_window = u64::from(seg.window).max(1);
        let blocks: Vec<(u64, u64)> = seg.sack_blocks().collect();
        for (s, e) in blocks {
            self.merge_sack(s, e);
        }
        // Retransmissions confirmed delivered (SACKed or cum-acked) leave
        // the pipe; forgetting them here keeps the pipe estimate honest.
        let snd_una = self.snd_una.max(seg.ack);
        let mut hr = std::mem::take(&mut self.hole_retx);
        hr.retain(|&s| s >= snd_una && !self.is_sacked(s));
        self.hole_retx = hr;
        if seg.ack > self.snd_una {
            // New data acknowledged.
            let newly = seg.ack - self.snd_una;
            // RTT sample from the oldest segment this ack covers (skip
            // retransmitted segments — Karn's algorithm).
            if let Some((&seq, &(sent_at, retx))) = self.sent_times.iter().next() {
                if seq < seg.ack && !retx {
                    self.update_rtt(ctx.now() - sent_at);
                }
            }
            let acked_keys: Vec<u64> = self.sent_times.range(..seg.ack).map(|(&k, _)| k).collect();
            for k in acked_keys {
                self.sent_times.remove(&k);
            }
            self.snd_una = seg.ack;
            self.stats.bytes_acked = self.snd_una;
            self.dup_acks = 0;
            // Progress resumed: RTO backoff resets (RFC 6298 §5.7).
            self.rto = self.base_rto();
            // Drop scoreboard state below the cumulative ack.
            let stale: Vec<u64> = self
                .sacked
                .iter()
                .filter(|&(_, &e)| e <= self.snd_una)
                .map(|(&s, _)| s)
                .collect();
            for s in stale {
                self.sacked.remove(&s);
            }
            if self.snd_una < self.recovery_until {
                // Still in recovery. After an RTO the window restarts from
                // one segment and must slow-start back up or recovery
                // crawls at one segment per RTT; the multiplicative part
                // of congestion avoidance stays frozen.
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly;
                }
                // Retransmit the holes the scoreboard exposes (SACK-based),
                // plus the cumulative hole itself if unSACKed (NewReno
                // partial ack).
                if !self.is_sacked(self.snd_una) && !self.hole_retx.contains(&self.snd_una) {
                    let len = (self.profile.mss as u64).min(self.total_bytes - self.snd_una) as u32;
                    let seq = self.snd_una;
                    self.send_segment(ctx, seq, len, true);
                    self.hole_retx.insert(seq);
                }
                self.retransmit_holes(ctx);
                self.arm_rto(ctx);
            } else {
                self.hole_retx.clear();
                self.grow_window(ctx.now(), newly);
            }
            // Completion?
            if self.snd_una >= self.total_bytes && self.stats.completed_at.is_none() {
                self.stats.completed_at = Some(ctx.now());
                self.stats.srtt_ns = self.rtt.srtt_ns();
                self.rto_deadline = None;
                return;
            }
            // Re-arm RTO for remaining in-flight data.
            if self.snd_una < self.snd_nxt {
                self.arm_rto(ctx);
            } else {
                self.rto_deadline = None;
            }
        } else if seg.ack == self.snd_una && self.snd_una < self.snd_nxt {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.snd_una >= self.recovery_until {
                // Fast retransmit + multiplicative decrease.
                let flight = self.snd_nxt - self.snd_una;
                self.on_loss_event(ctx.now(), flight);
                self.recovery_until = self.snd_nxt;
                self.stats.fast_retransmits += 1;
                self.hole_retx.clear();
                let len = (self.profile.mss as u64).min(self.total_bytes - self.snd_una) as u32;
                let seq = self.snd_una;
                self.send_segment(ctx, seq, len, true);
                self.hole_retx.insert(seq);
                // SACK-based recovery of the rest of the burst.
                self.retransmit_holes(ctx);
            } else if self.dup_acks > 3 && self.snd_una < self.recovery_until {
                // Fresh SACK information keeps arriving on duplicate ACKs;
                // keep draining newly exposed holes.
                self.retransmit_holes(ctx);
            }
        }
        self.try_send(ctx);
    }
}

impl Node for TcpSender {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        // Handshake: SYN, wait for SYN-ACK.
        let syn = Segment {
            flow: self.flow,
            seq: 0,
            ack: 0,
            flags: SegmentFlags {
                syn: true,
                ack: false,
                fin: false,
            },
            window: 0,
            len: 0,
            sack: [(0, 0); crate::segment::MAX_SACK],
        };
        ctx.send(0, Packet::with_flow(syn.encode(), self.flow));
        self.arm_rto(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, _port: PortId, pkt: Packet) {
        let Some(seg) = Segment::decode(&pkt.bytes) else {
            return;
        };
        if seg.flow != self.flow {
            return;
        }
        if seg.flags.syn && seg.flags.ack {
            if !self.established {
                self.established = true;
                self.rto_deadline = None;
                self.try_send(ctx);
            }
            return;
        }
        if seg.flags.ack {
            self.on_ack(ctx, seg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        match token {
            TOKEN_SEND => {
                self.send_timer_armed = false;
                self.try_send(ctx);
            }
            TOKEN_RTO => {
                let Some(deadline) = self.rto_deadline else {
                    return;
                };
                if ctx.now() < deadline {
                    return; // stale timer
                }
                if !self.established {
                    // Re-send SYN.
                    let syn = Segment {
                        flow: self.flow,
                        seq: 0,
                        ack: 0,
                        flags: SegmentFlags {
                            syn: true,
                            ack: false,
                            fin: false,
                        },
                        window: 0,
                        len: 0,
                        sack: [(0, 0); crate::segment::MAX_SACK],
                    };
                    ctx.send(0, Packet::with_flow(syn.encode(), self.flow));
                    self.rto = self.rto * 2;
                    self.arm_rto(ctx);
                    return;
                }
                if self.snd_una < self.snd_nxt {
                    // Timeout: retransmit the first unacked segment and
                    // collapse the window. Only a *fresh* congestion event
                    // (outside the current recovery epoch) resets the
                    // CUBIC anchor — an RTO while already recovering must
                    // not ratchet W_max down again.
                    let mss = self.profile.mss as u64;
                    let flight = self.snd_nxt - self.snd_una;
                    if self.snd_una >= self.recovery_until {
                        self.on_loss_event(ctx.now(), flight);
                    }
                    self.cwnd = mss;
                    self.cwnd_acc = 0;
                    self.dup_acks = 0;
                    self.recovery_until = self.snd_nxt;
                    self.stats.rto_retransmits += 1;
                    // The timeout is evidence that earlier retransmissions
                    // were lost too: reset the epoch so holes are eligible
                    // for retransmission again.
                    self.hole_retx.clear();
                    let len = (self.profile.mss as u64).min(self.total_bytes - self.snd_una) as u32;
                    let seq = self.snd_una;
                    self.send_segment(ctx, seq, len, true);
                    self.hole_retx.insert(seq);
                    self.retransmit_holes(ctx);
                    self.rto = self.rto * 2;
                    self.arm_rto(ctx);
                } else {
                    self.rto_deadline = None;
                }
            }
            _ => {}
        }
    }
}
