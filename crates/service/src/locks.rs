//! Lock acquisition for the engine, the auditor and the WAL, under one
//! poisoning policy.
//!
//! A thread that panics while holding a `std::sync` lock poisons it. The
//! engine, the auditor and the WAL take every lock (and every condvar
//! wait) through these helpers, which hand a poisoned guard back to the
//! caller as if the lock were healthy: a poisoned lock is never
//! unwrapped into a second panic. The first panic still surfaces where
//! it happened; the state behind the lock is what the panicking holder
//! left, exactly as it would be after an unpoisonable lock. A holder
//! that cannot trust that state says so itself: the WAL latches its set
//! failed when a shard lock comes back poisoned.

use std::sync::{
    LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// The value of a lock operation, poisoned or not.
pub(crate) fn unpoison<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Locks `mutex`.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    unpoison(mutex.lock())
}

/// Takes a shared lock on `lock`.
pub(crate) fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    unpoison(lock.read())
}

/// Takes the exclusive lock on `lock`.
pub(crate) fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    unpoison(lock.write())
}
