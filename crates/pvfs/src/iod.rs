//! I/O daemons and the `ramfs` storage model.
//!
//! §3.2: "An I/O daemon runs on each I/O node and services requests from
//! the compute nodes, in particular the read and write requests. Thus,
//! data is transferred directly between the I/O servers and the compute
//! nodes." §6.1 configures storage on `ramfs` — memory-resident — so a
//! read is a page-cache lookup plus `sendfile`, and a write is a memory
//! copy into the page cache.

use crate::process::ProcessCpu;
use ioat_faults::FaultInjector;
use ioat_netsim::msg::{self, MsgSender};
use ioat_netsim::Socket;
use ioat_simcore::{Sim, SimDuration};
use std::rc::Rc;

/// Wire size of a read request.
pub const READ_REQ_BYTES: u64 = 128;
/// Wire size of a write acknowledgement.
pub const WRITE_ACK_BYTES: u64 = 64;

/// Messages a client sends to an I/O daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum IodRequest {
    /// Read `len` bytes of this server's stripe pieces.
    Read {
        /// Client-assigned operation (attempt) id, echoed in the reply.
        op: u64,
        /// Piece length in bytes.
        len: u64,
    },
    /// The message itself carries `len` bytes to be written.
    Write {
        /// Client-assigned operation (attempt) id, echoed in the reply.
        op: u64,
        /// Piece length in bytes.
        len: u64,
    },
}

/// Messages an I/O daemon sends back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum IodReply {
    /// The message carries `len` bytes of file data.
    Data {
        /// Operation id of the request being answered.
        op: u64,
        /// Piece length in bytes.
        len: u64,
    },
    /// A write completed.
    Ack {
        /// Operation id of the write being acknowledged.
        op: u64,
    },
}

impl IodReply {
    /// The operation id this reply answers.
    pub fn op(&self) -> u64 {
        match *self {
            IodReply::Data { op, .. } => op,
            IodReply::Ack { op } => op,
        }
    }
}

/// `ramfs` + request-handling costs of an I/O daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IodParams {
    /// Fixed cost to decode and validate a request.
    pub request_handle: SimDuration,
    /// Per-byte cost of a `ramfs` read (page-cache lookup + `sendfile`
    /// descriptor setup; the wire transmission is charged by the stack).
    pub read_ps_per_byte: u64,
    /// Per-byte cost of a `ramfs` write (memory copy into the page
    /// cache).
    pub write_ps_per_byte: u64,
    /// Fixed cost to acquire and recycle a staging buffer per request.
    pub buffer_mgmt: SimDuration,
    /// Per-byte process-context cost to touch received payload when the
    /// CPU performs the kernel→user copy (no DMA engine): the copy
    /// itself plus the cache pollution it leaves behind. Applied to the
    /// daemon's received bytes — the bulk data of writes, the small
    /// request header of reads.
    pub rx_copy_ps_per_byte: u64,
    /// Residual per-byte cost when the I/OAT DMA engine performs the
    /// copy instead (descriptor posting + completion reaping).
    pub rx_offload_ps_per_byte: u64,
}

impl Default for IodParams {
    fn default() -> Self {
        IodParams {
            request_handle: SimDuration::from_micros(12),
            read_ps_per_byte: 120,
            write_ps_per_byte: 800,
            buffer_mgmt: SimDuration::from_micros(6),
            rx_copy_ps_per_byte: 2850,
            rx_offload_ps_per_byte: 1700,
        }
    }
}

impl IodParams {
    /// Daemon CPU cost to serve a read of `len` bytes.
    pub fn read_cost(&self, len: u64) -> SimDuration {
        self.request_handle + SimDuration::from_nanos(len * self.read_ps_per_byte / 1000)
    }

    /// Daemon CPU cost to commit a write of `len` bytes.
    pub fn write_cost(&self, len: u64) -> SimDuration {
        self.request_handle + SimDuration::from_nanos(len * self.write_ps_per_byte / 1000)
    }

    /// The effective per-byte receive-copy cost under `dma_engine`.
    pub fn rx_ps_per_byte(&self, dma_engine: bool) -> u64 {
        if dma_engine {
            self.rx_offload_ps_per_byte
        } else {
            self.rx_copy_ps_per_byte
        }
    }

    /// Daemon CPU per read request: handling + buffer management +
    /// `ramfs` read, plus the rx copy of the request header.
    pub fn serve_read_cost(&self, len: u64, rx_ps_per_byte: u64) -> SimDuration {
        self.read_cost(len)
            + self.buffer_mgmt
            + SimDuration::from_nanos(READ_REQ_BYTES * rx_ps_per_byte / 1000)
    }

    /// Daemon CPU per write request: handling + buffer management +
    /// `ramfs` commit, plus the rx copy of the payload itself — the term
    /// the DMA engine offloads.
    pub fn serve_write_cost(&self, len: u64, rx_ps_per_byte: u64) -> SimDuration {
        self.write_cost(len)
            + self.buffer_mgmt
            + SimDuration::from_nanos(len * rx_ps_per_byte / 1000)
    }
}

/// Attaches one connection of a *single-threaded* I/O daemon.
///
/// All connections to the same server pass the same [`ProcessCpu`], so
/// every request that daemon serves — from any client — runs through one
/// serial FIFO thread, exactly like the 2007 testbed's one `iod` process
/// per I/O server. Request costs use the full single-threaded model
/// ([`IodParams::serve_read_cost`] / [`IodParams::serve_write_cost`]):
/// rx-copy of received bytes at `rx_ps_per_byte` (pick it with
/// [`IodParams::rx_ps_per_byte`] from the node's DMA-engine setting),
/// request handling, buffer management, and the `ramfs` access.
/// `on_reply` fires at the client for each data/ack message.
///
/// While the daemon's crash window (service id `service`) is open,
/// incoming requests are dropped before they reach its queue — the bytes
/// were already delivered (message framing stays intact), only the
/// handler goes dark. The client's deadline/failover machinery is
/// responsible for recovery.
#[allow(clippy::too_many_arguments)]
pub fn serve_shared<F>(
    client_sock: Socket,
    server_sock: Socket,
    params: IodParams,
    cpu: ProcessCpu,
    rx_ps_per_byte: u64,
    faults: FaultInjector,
    service: u32,
    on_reply: F,
) -> MsgSender<IodRequest>
where
    F: FnMut(&mut Sim, IodReply) + 'static,
{
    // Replies daemon → client.
    let reply = Rc::new(msg::channel(
        server_sock.clone(),
        client_sock.clone(),
        on_reply,
    ));
    // Requests client → daemon, serialized on the shared process thread.
    msg::channel(client_sock, server_sock, move |sim, req: IodRequest| {
        if faults.service_down(service, sim.now()) {
            faults.note_daemon_drop();
            return;
        }
        let reply2 = Rc::clone(&reply);
        match req {
            IodRequest::Read { op, len } => {
                let cost = params.serve_read_cost(len, rx_ps_per_byte);
                cpu.run(sim, cost, move |sim| {
                    reply2.send(sim, len, IodReply::Data { op, len });
                });
            }
            IodRequest::Write { op, len } => {
                let cost = params.serve_write_cost(len, rx_ps_per_byte);
                cpu.run(sim, cost, move |sim| {
                    reply2.send(sim, WRITE_ACK_BYTES, IodReply::Ack { op });
                });
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioat_netsim::config::{IoatConfig, SocketOpts, StackParams};
    use ioat_netsim::socket::socket_pair;
    use ioat_netsim::stack::HostStack;
    use ioat_netsim::ConnId;
    use ioat_simcore::time::Bandwidth;
    use std::cell::RefCell;

    #[test]
    fn read_returns_data_write_returns_ack() {
        let mut sim = ioat_simcore::Sim::new();
        let c = HostStack::new("cn", 4, StackParams::default(), IoatConfig::disabled());
        let s = HostStack::new("iod", 4, StackParams::default(), IoatConfig::disabled());
        let (cs, ss) = socket_pair(
            &c,
            &s,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(25),
            SocketOpts::tuned(),
            ConnId(1),
        );
        let replies = Rc::new(RefCell::new(Vec::new()));
        let r = Rc::clone(&replies);
        let params = IodParams::default();
        let sender = serve_shared(
            cs,
            ss.clone(),
            params,
            ProcessCpu::new(ss),
            params.rx_ps_per_byte(false),
            FaultInjector::inert(),
            0,
            move |_sim, reply| r.borrow_mut().push(reply),
        );
        sender.send(
            &mut sim,
            READ_REQ_BYTES,
            IodRequest::Read { op: 1, len: 65_536 },
        );
        sender.send(&mut sim, 65_536, IodRequest::Write { op: 2, len: 65_536 });
        sim.run();
        let replies = replies.borrow();
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0], IodReply::Data { op: 1, len: 65_536 });
        assert_eq!(replies[1], IodReply::Ack { op: 2 });
    }

    #[test]
    fn write_costs_more_than_read_per_byte() {
        let p = IodParams::default();
        assert!(p.write_cost(65_536) > p.read_cost(65_536));
        assert_eq!(p.read_cost(0), p.request_handle);
    }

    #[test]
    fn dma_engine_offloads_the_write_rx_copy() {
        let p = IodParams::default();
        let copied = p.serve_write_cost(65_536, p.rx_ps_per_byte(false));
        let offloaded = p.serve_write_cost(65_536, p.rx_ps_per_byte(true));
        assert!(
            copied > offloaded,
            "CPU copy {copied:?} must cost more than DMA offload {offloaded:?}"
        );
        // Reads only receive the 128-byte request header, so their
        // daemon cost is nearly insensitive to the copy engine.
        let r_delta = p.serve_read_cost(65_536, p.rx_ps_per_byte(false))
            - p.serve_read_cost(65_536, p.rx_ps_per_byte(true));
        let w_delta = copied - offloaded;
        assert!(r_delta < w_delta / 100);
    }

    #[test]
    fn shared_daemon_serializes_requests_across_connections() {
        let mut sim = ioat_simcore::Sim::new();
        let c = HostStack::new("cn", 4, StackParams::default(), IoatConfig::disabled());
        let s = HostStack::new("iod", 4, StackParams::default(), IoatConfig::disabled());
        let mk = |conn: u64| {
            socket_pair(
                &c,
                &s,
                Bandwidth::from_gbps(10),
                SimDuration::from_micros(5),
                SocketOpts::tuned(),
                ConnId(conn),
            )
        };
        let (cs1, ss1) = mk(1);
        let (cs2, ss2) = mk(2);
        let cpu = ProcessCpu::new(ss1.clone());
        let params = IodParams::default();
        let done: Rc<RefCell<Vec<(u64, ioat_simcore::SimTime)>>> =
            Rc::new(RefCell::new(Vec::new()));
        let (d1, d2) = (Rc::clone(&done), Rc::clone(&done));
        let s1 = serve_shared(
            cs1,
            ss1,
            params,
            cpu.clone(),
            params.rx_ps_per_byte(false),
            FaultInjector::inert(),
            0,
            move |sim, reply| d1.borrow_mut().push((reply.op(), sim.now())),
        );
        let s2 = serve_shared(
            cs2,
            ss2,
            params,
            cpu.clone(),
            params.rx_ps_per_byte(false),
            FaultInjector::inert(),
            0,
            move |sim, reply| d2.borrow_mut().push((reply.op(), sim.now())),
        );
        // Two same-size reads on different connections of one daemon:
        // a per-connection daemon would serve them concurrently; the
        // shared thread must finish them one service time apart.
        s1.send(
            &mut sim,
            READ_REQ_BYTES,
            IodRequest::Read { op: 1, len: 65_536 },
        );
        s2.send(
            &mut sim,
            READ_REQ_BYTES,
            IodRequest::Read { op: 2, len: 65_536 },
        );
        sim.run();
        let done = done.borrow();
        assert_eq!(done.len(), 2);
        let gap = if done[1].1 > done[0].1 {
            done[1].1 - done[0].1
        } else {
            done[0].1 - done[1].1
        };
        let service = params.serve_read_cost(65_536, params.rx_ps_per_byte(false));
        assert!(
            gap >= service / 2,
            "replies {gap:?} apart — requests did not serialize (service {service:?})"
        );
    }
}
