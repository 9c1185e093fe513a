//! Quickstart for the chaos layer: the full resilience stack — retry
//! policy over a circuit breaker over a pooled `TcpTransport` — driven
//! through a fault-injecting `ChaosProxy` in front of a real
//! `TcpServingTier`, with a verdict-parity check against the same
//! provider called in-process and fault-free.
//!
//! Run with: `cargo run --example chaos_resilience`

use std::sync::Arc;
use std::time::Duration;

use safe_browsing_privacy::client::{
    BreakerPolicy, CircuitBreakerTransport, ClientConfig, RetryPolicy, RetryingTransport,
    SafeBrowsingClient, TcpTransport,
};
use safe_browsing_privacy::protocol::{Provider, VirtualClock};
use safe_browsing_privacy::server::{
    ChaosProxy, ChaosSchedule, Fault, SafeBrowsingServer, TcpServingTier, TierConfig,
};

fn main() {
    // Provider side: the usual simulated backend behind real sockets.
    let server = Arc::new(SafeBrowsingServer::with_standard_lists(Provider::Google));
    for i in 0..20 {
        server
            .blacklist_url(
                "goog-malware-shavar",
                &format!("http://evil{i}.example/exploit.html"),
            )
            .expect("list exists");
    }
    let tier = TcpServingTier::bind(server.clone(), TierConfig::default()).expect("bind loopback");

    // The chaos proxy sits on the wire between client and tier.  The
    // seeded schedule is a pure function of the exchange index: roughly
    // one exchange in three draws a fault from the palette, and the same
    // seed replays the identical sequence on every run.
    let proxy = ChaosProxy::start(
        tier.local_addr(),
        ChaosSchedule::seeded(
            5,
            3,
            vec![
                Fault::Delay(Duration::from_millis(2)),
                Fault::ResetMidFrame,
                Fault::Stall {
                    pause: Duration::from_millis(2),
                },
                Fault::CorruptRequest,
                Fault::CorruptReply,
                Fault::Blackhole,
                Fault::SlowDrip {
                    chunk: 64,
                    pause: Duration::from_millis(1),
                },
            ],
        ),
    )
    .expect("start chaos proxy");
    println!(
        "tier on {}, chaos proxy in front on {}",
        tier.local_addr(),
        proxy.local_addr()
    );

    // Client side: retry layer (backoff on a virtual clock — the only
    // real delays in this example are the ones the proxy injects) over a
    // circuit breaker (threshold far above the schedule's longest fault
    // run: chaos should degrade the path, not open the breaker) over the
    // pooled TCP transport, dialing the proxy instead of the tier.
    let clock = Arc::new(VirtualClock::new());
    let transport = RetryingTransport::with_clock(
        CircuitBreakerTransport::new(
            TcpTransport::new(proxy.local_addr()).expect("resolve proxy address"),
            BreakerPolicy::default().with_failure_threshold(1_000),
        ),
        RetryPolicy::default()
            .with_max_attempts(10)
            .with_base_delay(Duration::from_millis(100)),
        clock.clone(),
    );
    let mut chaotic = SafeBrowsingClient::new(
        ClientConfig::subscribed_to(["goog-malware-shavar"]),
        transport,
    );
    chaotic.update().expect("update through chaos");

    // Fault-free reference for the parity check.
    let mut calm = SafeBrowsingClient::in_process(
        ClientConfig::subscribed_to(["goog-malware-shavar"]),
        server,
    );
    calm.update().expect("in-process update");

    let mut probes: Vec<String> = (0..20)
        .map(|i| format!("http://evil{i}.example/exploit.html"))
        .collect();
    probes.push("http://benign.example/".to_string());
    let mut flagged = 0usize;
    for url in &probes {
        let under_chaos = chaotic.check_url(url).expect("every fault is retryable");
        let fault_free = calm.check_url(url).expect("in-process lookup");
        assert_eq!(under_chaos.is_malicious(), fault_free.is_malicious());
        if under_chaos.is_malicious() {
            flagged += 1;
        }
    }
    println!(
        "{} of {} URLs flagged — verdicts identical with and without wire chaos",
        flagged,
        probes.len()
    );

    // What the proxy actually did to us, and what it cost to ride out.
    drop(chaotic);
    let stats = proxy.shutdown();
    tier.shutdown();
    println!(
        "chaos: {} exchanges, {} faulted ({} delay, {} reset, {} stall, {} corrupt-req, \
         {} corrupt-reply, {} blackhole, {} slow-drip)",
        stats.exchanges,
        stats.faults_injected,
        stats.delays,
        stats.resets_mid_frame,
        stats.stalls,
        stats.corrupted_requests,
        stats.corrupted_replies,
        stats.blackholes,
        stats.slow_drips,
    );
    println!(
        "virtual backoff slept {:?} — zero wall-clock sleeps in the retry layer",
        clock.total_slept()
    );
}
