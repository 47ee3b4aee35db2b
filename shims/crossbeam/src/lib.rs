//! In-tree stand-in for the `crossbeam` crate.
//!
//! The workspace builds fully offline; this shim backs crossbeam's
//! unbounded channel API with `std::sync::mpsc`, which has identical
//! semantics for the subset the repository uses (cloneable senders, a
//! single receiver per channel, `recv_timeout`, iteration until
//! disconnect). A shared depth counter adds crossbeam's `len()` — the
//! runtime's inbox-depth gauge reads it.

#![warn(missing_docs)]

/// Multi-producer single-consumer channels.
pub mod channel {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// Cloneable sending half of an unbounded channel.
    pub struct Sender<T> {
        inner: mpsc::Sender<T>,
        depth: Arc<AtomicUsize>,
    }

    impl<T> std::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender { inner: self.inner.clone(), depth: Arc::clone(&self.depth) }
        }
    }

    impl<T> Sender<T> {
        /// Queues `value`; fails only when the receiver is gone.
        ///
        /// The depth counter is raised *before* the value becomes visible:
        /// a receiver that pops it at once must never decrement first, or
        /// [`Receiver::len`] would wrap to about 2^64.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.depth.fetch_add(1, Ordering::Relaxed);
            self.inner.send(value).inspect_err(|_| {
                self.depth.fetch_sub(1, Ordering::Relaxed);
            })
        }
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        inner: mpsc::Receiver<T>,
        depth: Arc<AtomicUsize>,
    }

    impl<T> std::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let value = self.inner.recv()?;
            self.depth.fetch_sub(1, Ordering::Relaxed);
            Ok(value)
        }

        /// Blocks up to `timeout` for a value.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let value = self.inner.recv_timeout(timeout)?;
            self.depth.fetch_sub(1, Ordering::Relaxed);
            Ok(value)
        }

        /// Pops a value without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let value = self.inner.try_recv()?;
            self.depth.fetch_sub(1, Ordering::Relaxed);
            Ok(value)
        }

        /// Values sent but not yet received. Approximate under concurrent
        /// sends, like crossbeam's — sufficient for a backpressure gauge.
        #[must_use]
        pub fn len(&self) -> usize {
            self.depth.load(Ordering::Relaxed)
        }

        /// True when [`Receiver::len`] is zero.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    /// Draining iterator that ends when every sender is gone.
    #[derive(Debug)]
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            Iter { rx: self }
        }
    }

    /// Borrowing draining iterator.
    #[derive(Debug)]
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Creates an unbounded channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        (Sender { inner: tx, depth: Arc::clone(&depth) }, Receiver { inner: rx, depth })
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn send_receive_and_disconnect() {
        let (tx, rx) = channel::unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop((tx, tx2));
        let got: Vec<i32> = rx.into_iter().collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = channel::unbounded::<()>();
        let err = rx.recv_timeout(Duration::from_millis(1)).unwrap_err();
        assert_eq!(err, channel::RecvTimeoutError::Timeout);
        drop(tx);
        let err = rx.recv_timeout(Duration::from_millis(1)).unwrap_err();
        assert_eq!(err, channel::RecvTimeoutError::Disconnected);
    }

    #[test]
    fn len_tracks_queued_values() {
        let (tx, rx) = channel::unbounded();
        assert_eq!(rx.len(), 0);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.len(), 1);
        assert!(!rx.is_empty());
        assert_eq!(rx.recv().unwrap(), 2);
        assert!(rx.is_empty());
    }

    #[test]
    fn len_never_wraps_under_concurrent_send_and_receive() {
        const SENDS: usize = 200_000;
        let (tx, rx) = channel::unbounded();
        let sender = std::thread::spawn(move || {
            for i in 0..SENDS {
                tx.send(i).unwrap();
            }
        });
        // The receiver pops each value the moment it lands: if the sender
        // counted it only after publishing, the pop would decrement first.
        let mut max_len = 0;
        for _ in 0..SENDS {
            rx.recv().unwrap();
            max_len = max_len.max(rx.len());
        }
        sender.join().unwrap();
        assert!(max_len <= SENDS, "len() wrapped to {max_len} with {SENDS} values sent");
        assert_eq!(rx.len(), 0);
    }
}
