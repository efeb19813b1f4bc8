//! A connected `Client` holds one socket descriptor: its reader and
//! writer share one `TcpStream`, so 10 000 load-driver connections fit a
//! 20 000-descriptor `RLIMIT_NOFILE`. A client that has waited for a
//! reply also holds its poller's descriptor; the load driver's lanes
//! share one poller. This file holds one test, so no other test's
//! descriptors come and go while it counts.

use oc_client::{Client, ClientConfig};

#[cfg(target_os = "linux")]
#[test]
fn each_client_holds_one_socket_fd() {
    // A listener that never accepts: connects complete in its backlog,
    // so no server-side descriptor joins the count.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let open_fds = || std::fs::read_dir("/proc/self/fd").unwrap().count();
    let before = open_fds();
    let clients: Vec<Client> = (0..64)
        .map(|_| Client::connect(addr, ClientConfig::default()).unwrap())
        .collect();
    assert_eq!(open_fds() - before, 64);
    drop(clients);
}
