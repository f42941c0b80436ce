//! Allocation gate for both ends of a socket link.
//!
//! A `ClientConn` holds no payload buffer: a dense payload goes out from
//! the caller's slice in one vectored write, and one comes in straight into
//! the vector `read_event` returns. So `send_payload`, cold or warm, makes
//! no allocator call at all, and a dense `read_event` makes exactly one — the
//! returned vector, sized once by its frame header. The server's reactor
//! decodes a dense upload straight into the vector its claim
//! (`SocketTransport::recv`) hands out: one allocator call per upload.
//!
//! This file holds exactly one test function, as `alloc.rs` does and for its
//! reason: the counter is process-wide, so a second test on a sibling
//! thread would charge its allocator calls to the leg being measured.

use rfl_core::comm::{
    read_frame, write_frame, ClientConn, ClientEvent, ControlMsg, Endpoint, MsgKind,
    RemoteTransport, SocketTransport,
};
use rfl_core::compress::Compression;
use std::alloc::{GlobalAlloc, Layout, System};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicU64, Ordering};

/// `alloc` + `alloc_zeroed` + `realloc` calls since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counter is a
// plain atomic and cannot affect allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `f`'s result and the allocator calls made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_dense_send_allocates_nothing_and_a_dense_read_or_claim_only_its_vector() {
    let dir = std::env::temp_dir().join(format!("rfl-link-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let path = dir.join("server.sock");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind");
    // One thread: the connect completes against the listen backlog, and
    // every frame below fits the socket buffer.
    let mut conn = ClientConn::connect(&Endpoint::Unix(path.clone())).expect("connect");
    let (mut server, _) = listener.accept().expect("accept");

    // The `wire_cohort_1k` echo's model: 1,024 floats, a 4,105-byte frame.
    let model: Vec<f32> = (0..1024).map(|i| (i as f32).sin()).collect();
    let mut body = Vec::new();
    rfl_tensor::encode_f32_into(&mut body, &model);

    // A staging buffer would show on the first send, as its growth.
    let ((), cold) = counted(|| {
        conn.send_payload(MsgKind::ModelUp, &model)
            .expect("cold send")
    });
    let ((), sends) = counted(|| {
        for _ in 0..4 {
            conn.send_payload(MsgKind::ModelUp, &model)
                .expect("warm send");
        }
    });
    for _ in 0..5 {
        let frame = read_frame(&mut server).expect("upload");
        assert_eq!(frame, (MsgKind::ModelUp.tag(), body.clone()));
    }

    let mut reads = Vec::new();
    for round in 0..3 {
        write_frame(&mut server, MsgKind::ModelDown.tag(), &body).expect("download");
        let (event, calls) = counted(|| conn.read_event().expect("a frame"));
        let ClientEvent::Payload(MsgKind::ModelDown, got) = event else {
            panic!("round {round}: not a model: {event:?}")
        };
        assert_eq!(got, model);
        reads.push(calls);
    }
    println!(
        "link_alloc: cold dense send {cold} allocator calls, 4 warm {sends}; dense reads {reads:?}"
    );
    assert_eq!((cold, sends), (0, 0), "a dense send allocated");
    assert_eq!(reads, [1, 1, 1], "a dense read is its vector alone");
    drop(conn);

    // The server end: a registered client's dense uploads, each claimed
    // through `recv` once the reactor has decoded it.
    let welcome = ControlMsg::Welcome {
        num_clients: 1,
        rounds: 1,
        local_steps: 1,
        batch_size: 1,
        probe_batch: 1,
        lambda: 0.0,
        lr: 0.0,
        clip_grad_norm: f32::NAN,
        seed: 7,
        compression: Compression::None,
    };
    let endpoint = Endpoint::Unix(dir.join("reactor.sock"));
    let mut transport = SocketTransport::bind(&endpoint, &welcome).expect("bind");
    let mut conn = ClientConn::connect(&endpoint).expect("connect");
    conn.hello(0, 7).expect("register");
    let mut claims = Vec::new();
    for round in 0..4 {
        let (delivery, calls) = counted(|| {
            conn.send_payload(MsgKind::ModelUp, &model).expect("upload");
            transport.recv(MsgKind::ModelUp, 0)
        });
        assert_eq!(delivery.data.as_deref(), Some(&model[..]), "round {round}");
        claims.push(calls);
    }
    println!("link_alloc: dense upload claims {claims:?} allocator calls");
    // The first claim also grows the session's frame queue.
    assert_eq!(
        claims[1..],
        [1, 1, 1],
        "a claimed upload is its vector alone"
    );

    transport.shutdown();
    drop(conn);
    let _ = std::fs::remove_dir_all(&dir);
}
