//! The typed client against a peer that breaks the protocol: a reply
//! line that is not a response of PROTOCOL.md §4 is a terminal
//! [`ClientError::Proto`], surfaced at once and never retried.
//!
//! `BUSY` is the case that matters: it was once a retryable response,
//! and no server in this tree sends it any more. A client that still
//! retried it would re-send requests a peer had not refused.

use overcommit_repro::client::{Client, ClientConfig, ClientError};
use overcommit_repro::serve::proto::Request;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;

#[test]
fn busy_reply_is_a_protocol_error_not_a_retry() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::scope(|s| {
        // A stub peer for one connection: every request line is answered
        // `BUSY` until the client hangs up.
        s.spawn(|| {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for line in BufReader::new(stream).lines() {
                if line.is_err() || writer.write_all(b"BUSY\n").is_err() {
                    return;
                }
            }
        });

        let mut client = Client::connect(addr, ClientConfig::default()).expect("connect");
        let err = client.request(&Request::Stats).unwrap_err();
        assert!(matches!(err, ClientError::Proto(_)), "{err:?}");

        let mut answered = 0;
        let err = client
            .pipeline_with(&vec![Request::Stats; 8], |_, _, _| answered += 1)
            .unwrap_err();
        assert!(matches!(err, ClientError::Proto(_)), "{err:?}");
        assert_eq!(answered, 0);

        let m = client.metrics();
        assert_eq!((m.retries, m.reconnects), (0, 0), "{m:?}");
    });
}
