//! The one background runner: a named thread that runs a tick on a poll
//! cadence until told to stop. [`Checkpointer`](crate::Checkpointer),
//! [`Compactor`](crate::Compactor) and [`Auditor`](crate::Auditor) are
//! thin public names over it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A polling background thread with an explicit [`stop`](Self::stop)
/// and join-on-drop.
#[derive(Debug)]
pub(crate) struct PollThread {
    name: &'static str,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<u64>>,
}

impl PollThread {
    /// Spawns a thread calling `tick` every `poll` until stopped. The
    /// thread's result is how many ticks returned `true` (did work).
    pub(crate) fn spawn(
        name: &'static str,
        poll: Duration,
        mut tick: impl FnMut() -> bool + Send + 'static,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut worked = 0u64;
            while !stop_flag.load(Ordering::Relaxed) {
                worked += u64::from(tick());
                std::thread::sleep(poll);
            }
            worked
        });
        Self {
            name,
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread and joins it, returning its work count.
    ///
    /// # Panics
    /// Resurfaces a panic of the background thread.
    pub(crate) fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        let handle = self.handle.take().expect("joined only here or in drop");
        handle
            .join()
            .unwrap_or_else(|_| panic!("{} thread panicked", self.name))
    }
}

impl Drop for PollThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
