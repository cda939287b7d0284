//! The metadata manager daemon.
//!
//! §3.2: "A manager daemon runs on a meta-data manager node. It handles
//! meta-data operations involving file permissions, truncation, file
//! stripe characteristics, and so on... the meta-data manager does not
//! participate in read/write operations." Clients perform one `open`
//! round trip before streaming I/O.

use crate::process::ProcessCpu;
use ioat_netsim::msg::{self, MsgSender};
use ioat_netsim::Socket;
use ioat_simcore::{Sim, SimDuration};
use std::rc::Rc;

/// Wire size of a metadata request.
pub const META_REQ_BYTES: u64 = 256;
/// Wire size of a metadata reply (layout descriptor).
pub const META_REPLY_BYTES: u64 = 512;

/// Metadata operation costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaParams {
    /// CPU cost of an `open` (permission check, layout lookup).
    pub open_cost: SimDuration,
}

impl Default for MetaParams {
    fn default() -> Self {
        MetaParams {
            open_cost: SimDuration::from_micros(80),
        }
    }
}

/// Installs the manager daemon on the server endpoint of a metadata
/// connection and returns the client-side request sender; `on_open`
/// fires at the client when the reply arrives.
///
/// The manager runs as a single-threaded process: every connection to it
/// passes the same [`ProcessCpu`], so concurrent opens from many clients
/// queue behind one serial daemon — the §3.2 "manager daemon" is one
/// process, and the metadata-contention scenario measures exactly that
/// queue.
pub fn serve_meta_shared<F>(
    client_sock: Socket,
    manager_sock: Socket,
    params: MetaParams,
    cpu: ProcessCpu,
    on_open: F,
) -> MsgSender<()>
where
    F: FnMut(&mut Sim, ()) + 'static,
{
    // Replies manager → client.
    let reply = Rc::new(msg::channel(
        manager_sock.clone(),
        client_sock.clone(),
        on_open,
    ));
    // Requests client → manager, serialized on the manager's thread.
    msg::channel(client_sock, manager_sock, move |sim: &mut Sim, _req: ()| {
        let reply2 = Rc::clone(&reply);
        cpu.run(sim, params.open_cost, move |sim| {
            reply2.send(sim, META_REPLY_BYTES, ());
        });
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
    fn open_round_trip_completes() {
        let mut sim = Sim::new();
        let c = HostStack::new("client", 4, StackParams::default(), IoatConfig::disabled());
        let s = HostStack::new("server", 4, StackParams::default(), IoatConfig::disabled());
        let (cs, ss) = socket_pair(
            &c,
            &s,
            Bandwidth::from_gbps(1),
            SimDuration::from_micros(25),
            SocketOpts::tuned(),
            ConnId(1),
        );
        let opened = Rc::new(RefCell::new(0u32));
        let o = Rc::clone(&opened);
        let cpu = ProcessCpu::new(ss.clone());
        let sender = serve_meta_shared(cs, ss, MetaParams::default(), cpu, move |_sim, ()| {
            *o.borrow_mut() += 1;
        });
        sender.send(&mut sim, META_REQ_BYTES, ());
        sender.send(&mut sim, META_REQ_BYTES, ());
        sim.run();
        assert_eq!(*opened.borrow(), 2, "both opens must complete");
    }
}
