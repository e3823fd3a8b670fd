#include "pipeline/thread_pool.h"

#include <algorithm>
#include <utility>

namespace freqdedup {

ThreadPool::ThreadPool(size_t threads, size_t queueCapacity)
    : tasks_(queueCapacity) {
  FDD_CHECK(threads > 0);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::workerLoop() {
  while (auto task = tasks_.pop()) {
    try {
      (*task)();
    } catch (...) {
      // Worker threads must not unwind (std::terminate); park the first
      // exception for wait() to rethrow on the submitting thread.
      std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    finishOne();
  }
}

void ThreadPool::finishOne() {
  std::lock_guard lock(mu_);
  if (--inFlight_ == 0) idle_.notify_all();
}

bool ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    ++inFlight_;
  }
  if (!tasks_.push(std::move(task))) {
    finishOne();  // never ran: roll the accounting back
    return false;
  }
  return true;
}

void ThreadPool::wait() {
  std::unique_lock lock(mu_);
  idle_.wait(lock, [&] { return inFlight_ == 0; });
  if (error_) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::shutdown() {
  tasks_.close();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
}

void parallelFor(size_t threads, size_t n,
                 const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    body(0, n);
    return;
  }
  ThreadPool pool(threads, std::min(n, threads * 4));
  parallelFor(pool, n, body);
}

void parallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  // 4 blocks per worker smooths out uneven per-item cost.
  const size_t blocks = std::min(n, pool.threadCount() * 4);
  const size_t blockSize = (n + blocks - 1) / blocks;
  for (size_t begin = 0; begin < n; begin += blockSize) {
    const size_t end = std::min(n, begin + blockSize);
    pool.submit([&body, begin, end] { body(begin, end); });
  }
  pool.wait();
}

struct PendingRange::State {
  std::function<void(size_t, size_t)> body;
  std::mutex mu;
  std::condition_variable done;
  size_t remaining = 0;
  std::exception_ptr error;
};

PendingRange& PendingRange::operator=(PendingRange&& other) noexcept {
  if (this != &other) {
    waitQuietly();
    state_ = std::move(other.state_);
  }
  return *this;
}

PendingRange::~PendingRange() { waitQuietly(); }

void PendingRange::wait() {
  if (!state_) return;
  const std::shared_ptr<State> state = std::move(state_);
  std::unique_lock lock(state->mu);
  state->done.wait(lock, [&state] { return state->remaining == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

void PendingRange::waitQuietly() noexcept {
  try {
    wait();
  } catch (...) {  // the owner is going away; nobody is left to tell
  }
}

PendingRange startParallelForShared(ThreadPool& pool, size_t n,
                                    std::function<void(size_t, size_t)> body) {
  PendingRange range;
  if (n == 0) return range;
  const size_t blocks = std::min(n, pool.threadCount() * 4);
  const size_t blockSize = (n + blocks - 1) / blocks;

  // Per-range completion latch: concurrent callers each wait only for their
  // own blocks, never for the pool to drain.
  const auto state = std::make_shared<PendingRange::State>();
  state->body = std::move(body);
  state->remaining = (n + blockSize - 1) / blockSize;
  range.state_ = state;

  for (size_t begin = 0; begin < n; begin += blockSize) {
    const size_t end = std::min(n, begin + blockSize);
    const bool accepted = pool.submit([state, begin, end] {
      std::exception_ptr error;
      try {
        state->body(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(state->mu);
      if (error && !state->error) state->error = error;
      if (--state->remaining == 0) state->done.notify_all();
    });
    if (!accepted) {
      // This block and the ones after it never run: settle them, so the
      // range's destructor waits only for the blocks already submitted.
      std::lock_guard lock(state->mu);
      state->remaining -= (n - begin + blockSize - 1) / blockSize;
    }
    FDD_CHECK_MSG(accepted, "parallelForShared on a shut-down pool");
  }
  return range;
}

void parallelForShared(ThreadPool& pool, size_t n,
                       const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0, 1);
    return;
  }
  startParallelForShared(pool, n, body).wait();
}

void parallelFor(ThreadPool* pool, size_t threads, size_t n,
                 const std::function<void(size_t, size_t)>& body) {
  if (pool != nullptr) {
    parallelFor(*pool, n, body);
  } else {
    parallelFor(threads, n, body);
  }
}

}  // namespace freqdedup
