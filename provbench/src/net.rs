//! Wire plumbing shared by the networked workloads: the socket path,
//! clients with a per-operation deadline, and fault containment around
//! client calls.

use std::any::Any;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use frontend::{
    decode_command, decode_reply, encode_command, encode_reply, Client, ClientError, Command, Reply,
};

/// The directory each run writes into (socket, result record), relative
/// to the checkout root.
pub const OUT_DIR: &str = ".bench_results";

/// How long a client waits for any one reply before counting the
/// operation as failed. Far above the slowest healthy reply (a `Flush`
/// draining a full commit window takes milliseconds).
pub const DEADLINE: Duration = Duration::from_secs(30);

/// A fresh socket path for this process, relative (so long checkout
/// paths stay under the socket-path limit).
pub fn socket_path(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{tag}-{}.sock", std::process::id()))
}

/// Connects with the read and write deadline set.
///
/// # Errors
///
/// Connect or socket-option errors.
pub fn connect(path: &Path) -> std::io::Result<Client<UnixStream>> {
    let stream = UnixStream::connect(path)?;
    stream.set_read_timeout(Some(DEADLINE))?;
    stream.set_write_timeout(Some(DEADLINE))?;
    Ok(Client::over(stream))
}

/// Runs `work` once per client, each on its own thread with its own
/// input, and returns the results in client order.
pub fn each_client<I: Sync, T: Send>(
    clients: &mut [Client<UnixStream>],
    inputs: &[I],
    work: impl Fn(&mut Client<UnixStream>, &I) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(inputs)
            .map(|(client, input)| s.spawn(move || work(client, input)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs one client call, turning both an error reply and a panic inside
/// the client into `Err` with a description. A panic is how the client
/// currently refuses a command frame above the 8 MiB cap.
pub fn guarded<T>(call: impl FnOnce() -> Result<T, ClientError>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("client panicked: {}", panic_text(payload.as_ref()))),
    }
}

/// Keeps the default panic report for unexpected panics but prints the
/// known oversize-frame panic of the client only once per run.
pub fn quiet_known_panic() {
    let default = std::panic::take_hook();
    let seen = std::sync::atomic::AtomicBool::new(false);
    std::panic::set_hook(Box::new(move |info| {
        let known = info
            .location()
            .is_some_and(|l| l.file().ends_with("codec.rs"));
        if known && seen.swap(true, std::sync::atomic::Ordering::Relaxed) {
            return;
        }
        default(info);
    }));
}

/// The codec's share of one round trip: encode and decode of the
/// command and of its reply, as client and server each do once.
/// Returns the time taken and the bytes both frames put on the wire.
pub fn codec_cost(command: &Command, reply: &Reply) -> (Duration, u64) {
    let start = Instant::now();
    let frame = encode_command(command);
    let decoded = decode_command(&frame);
    let answer = encode_reply(reply);
    let back = decode_reply(&answer);
    let took = start.elapsed();
    std::hint::black_box((decoded.is_ok(), back.is_ok()));
    (took, (frame.len() + answer.len() + 8) as u64)
}
