//! Nonblocking UDP with fault injection on the send path.
//!
//! [`FaultySocket`] owns a `std::net::UdpSocket` in nonblocking mode and
//! routes every outbound datagram through a [`FaultInjector`] before it
//! reaches `send`. Receives are plain — faults are injected exactly
//! once, at the sending socket, so a loopback pair with one faulty
//! direction models a lossy WAN with a clean control path.
//!
//! The socket is connected as soon as its peer is known: at once when it
//! is built with one, or on a listen side when the first datagram names
//! it. A connected socket sends without a route lookup per datagram, and
//! the kernel drops datagrams from anyone else. A datagram the injector
//! passes goes to the kernel straight from the caller's slice; only
//! delay-held copies and, on a listen side, datagrams waiting for a peer
//! are copied. A connected socket also hears the ICMP "port unreachable"
//! of a peer that has closed, as `ConnectionRefused`: that is a lost
//! datagram, like a full send buffer, never an error of the run.

use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};

use mmt_netsim::Time;

use crate::fault::{FaultInjector, FaultStats};
use crate::IoError;

/// Datagram counters for one socket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketStats {
    /// Datagrams handed to the kernel.
    pub sent: u64,
    /// Bytes handed to the kernel.
    pub sent_bytes: u64,
    /// Datagrams received.
    pub received: u64,
    /// Bytes received.
    pub received_bytes: u64,
}

/// A nonblocking UDP socket whose sends pass through a fault injector.
#[derive(Debug)]
pub struct FaultySocket {
    sock: UdpSocket,
    /// The peer, once known; the socket is connected to it from then on.
    peer: Option<SocketAddr>,
    injector: FaultInjector,
    /// Copies released from the delay queue, and datagrams waiting for a
    /// peer.
    ready: Vec<Vec<u8>>,
    /// Counters.
    pub stats: SocketStats,
}

impl FaultySocket {
    /// Wrap a bound socket. The socket is switched to nonblocking mode,
    /// and connected to `peer` if one is given. `peer` may be `None` on a
    /// listen side — it is learned from the first received datagram.
    pub fn new(
        sock: UdpSocket,
        peer: Option<SocketAddr>,
        injector: FaultInjector,
    ) -> Result<FaultySocket, IoError> {
        sock.set_nonblocking(true)?;
        if let Some(peer) = peer {
            sock.connect(peer)?;
        }
        Ok(FaultySocket {
            sock,
            peer,
            injector,
            ready: Vec::new(),
            stats: SocketStats::default(),
        })
    }

    /// The local address the kernel assigned.
    pub fn local_addr(&self) -> Result<SocketAddr, IoError> {
        Ok(self.sock.local_addr()?)
    }

    /// The current peer, if known.
    pub fn peer(&self) -> Option<SocketAddr> {
        self.peer
    }

    /// Send a datagram to the peer, subject to the fault plan. Copies
    /// that survive (and are not delayed) go to the kernel immediately,
    /// from `datagram` itself; without a peer they wait for one.
    pub fn send(&mut self, now: Time, datagram: &[u8]) -> Result<(), IoError> {
        let copies = self.injector.pass(now, datagram);
        if self.peer.is_some() && self.ready.is_empty() {
            for _ in 0..copies {
                self.transmit(datagram)?;
            }
        } else {
            // No peer yet, or datagrams that waited for one go first.
            for _ in 0..copies {
                self.ready.push(datagram.to_vec());
            }
        }
        self.flush(now)
    }

    /// Release delay-held copies that are due and push everything ready
    /// to the kernel.
    pub fn flush(&mut self, now: Time) -> Result<(), IoError> {
        self.injector.release_due(now, &mut self.ready);
        if self.peer.is_none() {
            // No peer yet (listen side, nothing received): hold output.
            return Ok(());
        }
        // Taken out for the loop, and put back for its capacity.
        let mut ready = std::mem::take(&mut self.ready);
        let sent = ready.drain(..).try_for_each(|d| self.transmit(&d));
        self.ready = ready;
        sent
    }

    /// Try to receive one datagram. Returns `Ok(None)` when the socket
    /// has nothing pending. Learns the peer from the first arrival if it
    /// was unknown, and connects to it.
    pub fn recv(&mut self, buf: &mut [u8]) -> Result<Option<usize>, IoError> {
        loop {
            let got = match self.peer {
                Some(_) => self.sock.recv(buf),
                None => self.sock.recv_from(buf).and_then(|(n, from)| {
                    self.sock.connect(from)?;
                    self.peer = Some(from);
                    Ok(n)
                }),
            };
            match got {
                Ok(n) => {
                    self.stats.received += 1;
                    self.stats.received_bytes += n as u64;
                    return Ok(Some(n));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                // The refusal of a datagram already sent and counted;
                // reporting it clears it, so read on.
                Err(e) if e.kind() == ErrorKind::ConnectionRefused => {}
                Err(e) => return Err(IoError::Socket(e)),
            }
        }
    }

    /// Hand one datagram to the connected kernel socket. A full send
    /// buffer (`WouldBlock`) or a peer that has closed
    /// (`ConnectionRefused`) is wire loss, counted as dropped: the NAK
    /// path recovers it like any other drop.
    fn transmit(&mut self, datagram: &[u8]) -> Result<(), IoError> {
        match self.sock.send(datagram) {
            Ok(n) => {
                self.stats.sent += 1;
                self.stats.sent_bytes += n as u64;
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::ConnectionRefused
                ) =>
            {
                self.injector.stats.dropped += 1;
                Ok(())
            }
            Err(e) => Err(IoError::Socket(e)),
        }
    }

    /// When the injector will next release a held copy, if any.
    pub fn next_release(&self) -> Option<Time> {
        self.injector.next_release()
    }

    /// Fault counters accumulated on this socket's send path.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn loopback_pair() -> (FaultySocket, FaultySocket) {
        let a = UdpSocket::bind(("127.0.0.1", 0)).expect("bind a");
        let b = UdpSocket::bind(("127.0.0.1", 0)).expect("bind b");
        let a_addr = a.local_addr().expect("addr a");
        let b_addr = b.local_addr().expect("addr b");
        let fa = FaultySocket::new(a, Some(b_addr), FaultInjector::new(1, FaultPlan::clean()))
            .expect("wrap a");
        let fb = FaultySocket::new(b, Some(a_addr), FaultInjector::new(2, FaultPlan::clean()))
            .expect("wrap b");
        (fa, fb)
    }

    /// The next datagram `s` returns within 100 ms, if any.
    fn recv_one(s: &mut FaultySocket) -> Option<Vec<u8>> {
        let mut buf = [0u8; 64];
        for _ in 0..100 {
            if let Some(n) = s.recv(&mut buf).expect("recv") {
                return Some(buf[..n].to_vec());
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        None
    }

    #[test]
    fn clean_roundtrip_over_loopback() {
        let (mut a, mut b) = loopback_pair();
        a.send(Time::ZERO, b"hello").expect("send");
        let got = recv_one(&mut b);
        assert_eq!(got.as_deref(), Some(&b"hello"[..]));
        assert_eq!(a.stats.sent, 1);
        assert_eq!(b.stats.received, 1);
    }

    #[test]
    fn full_drop_plan_sends_nothing() {
        let a = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let peer = a.local_addr().expect("addr");
        let plan = FaultPlan {
            drop: 1.0,
            dup: 0.0,
            delay: Time::ZERO,
        };
        let mut s = FaultySocket::new(a, Some(peer), FaultInjector::new(3, plan)).expect("wrap");
        for _ in 0..10 {
            s.send(Time::ZERO, b"x").expect("send");
        }
        assert_eq!(s.stats.sent, 0);
        assert_eq!(s.fault_stats().dropped, 10);
    }

    /// A connected socket whose peer has closed hears "port unreachable"
    /// as `ConnectionRefused`: each refused send is a lost datagram, and a
    /// refusal reported at `recv` is no error either.
    #[test]
    fn a_refused_send_is_a_lost_datagram() {
        let closed = UdpSocket::bind(("127.0.0.1", 0)).expect("bind peer");
        let peer = closed.local_addr().expect("addr");
        drop(closed);
        let a = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let mut s = FaultySocket::new(a, Some(peer), FaultInjector::new(4, FaultPlan::clean()))
            .expect("wrap");
        for i in 0..10 {
            s.send(Time::ZERO, b"x")
                .unwrap_or_else(|e| panic!("send {i}: {e}"));
        }
        let mut buf = [0u8; 16];
        assert_eq!(s.recv(&mut buf).expect("recv"), None);
        let lost = s.fault_stats().dropped;
        assert!(lost > 0, "the closed port refused some sends");
        assert_eq!(s.stats.sent + lost, 10, "every send is sent or lost");
        // Nothing is pending now, so this one goes out and its refusal
        // waits for the next call: a read.
        s.send(Time::ZERO, b"x").expect("send 10");
        assert_eq!(s.stats.sent + s.fault_stats().dropped, 11);
        assert_eq!(s.recv(&mut buf).expect("a refusal at recv"), None);
    }

    /// A listen side connects to the peer its first datagram names, so the
    /// kernel drops what anyone else sends it.
    #[test]
    fn a_listen_side_hears_only_the_peer_it_learned() {
        let l = UdpSocket::bind(("127.0.0.1", 0)).expect("bind listen");
        let l_addr = l.local_addr().expect("addr");
        let mut listen =
            FaultySocket::new(l, None, FaultInjector::new(5, FaultPlan::clean())).expect("wrap");
        let a = UdpSocket::bind(("127.0.0.1", 0)).expect("bind a");
        let b = UdpSocket::bind(("127.0.0.1", 0)).expect("bind b");
        a.send_to(b"a1", l_addr).expect("a1");
        assert_eq!(recv_one(&mut listen).as_deref(), Some(&b"a1"[..]));
        assert_eq!(listen.peer(), a.local_addr().ok());
        // B's datagram goes out first; the next one read is still A's.
        b.send_to(b"b1", l_addr).expect("b1");
        a.send_to(b"a2", l_addr).expect("a2");
        assert_eq!(recv_one(&mut listen).as_deref(), Some(&b"a2"[..]));
        assert_eq!(recv_one(&mut listen), None, "B's datagram never comes");
        assert_eq!(listen.stats.received, 2);
    }
}
