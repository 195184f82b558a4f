#include "reference.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>

#include "common/hash.h"

namespace perfbench {

using prairie::common::Result;
using prairie::common::Status;

namespace {

uint64_t Finalize(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t w = ::write(fd, data.data() + done, data.size() - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(w);
  }
  return true;
}

[[noreturn]] void ChildMain(int fd, size_t first, size_t n, int procs,
                            const std::function<std::string(size_t)>& work) {
  // Die with the parent: a killed benchmark must not leave workers behind.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  int code = 0;
  try {
    for (size_t i = first; i < n; i += static_cast<size_t>(procs)) {
      std::string line = work(i);
      std::replace(line.begin(), line.end(), '\n', ' ');
      if (!WriteAll(fd, std::to_string(i) + "\t" + line + "\n")) {
        code = 2;
        break;
      }
    }
  } catch (const std::exception&) {
    code = 3;
  }
  ::close(fd);
  ::_exit(code);
}

}  // namespace

ResultDigest DigestResult(const std::vector<prairie::exec::Row>& rows,
                          const prairie::exec::RowSchema& schema) {
  std::vector<size_t> order(schema.attrs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return schema.attrs[a] < schema.attrs[b];
  });
  uint64_t header = 0;
  for (size_t i : order) header = prairie::common::HashCombine(
                             header, schema.attrs[i].Hash());
  ResultDigest d;
  d.rows = rows.size();
  d.hash = header;
  for (const prairie::exec::Row& row : rows) {
    uint64_t h = header;
    for (size_t i : order) {
      h = prairie::common::HashCombine(h, i < row.size() ? row[i].Hash() : 0);
    }
    d.hash += Finalize(h);  // a sum: insensitive to row order
  }
  return d;
}

Result<std::vector<std::string>> ForkMap(
    size_t n, int procs, const std::function<std::string(size_t)>& work) {
  procs = std::max(1, std::min<int>(procs, static_cast<int>(n)));
  std::vector<pid_t> pids;
  std::vector<int> fds;
  auto reap = [&](bool kill_first) {
    for (int fd : fds) ::close(fd);
    fds.clear();
    bool clean = true;
    for (pid_t pid : pids) {
      if (kill_first) ::kill(pid, SIGKILL);
      int status = 0;
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) clean = false;
    }
    pids.clear();
    return clean;
  };
  std::fflush(nullptr);  // a child must not inherit unflushed output
  for (int k = 0; k < procs; ++k) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      reap(true);
      return Status::Internal("reference workers: pipe failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipe_fds[0]);
      ::close(pipe_fds[1]);
      reap(true);
      return Status::Internal("reference workers: fork failed");
    }
    if (pid == 0) {
      ::close(pipe_fds[0]);
      for (int fd : fds) ::close(fd);
      ChildMain(pipe_fds[1], static_cast<size_t>(k), n, procs, work);
    }
    ::close(pipe_fds[1]);
    pids.push_back(pid);
    fds.push_back(pipe_fds[0]);
  }
  // Drain every pipe until all children close them.
  std::vector<std::string> text(fds.size());
  std::vector<bool> open(fds.size(), true);
  size_t open_count = fds.size();
  char buf[1 << 14];
  while (open_count > 0) {
    std::vector<pollfd> pfds;
    std::vector<size_t> which;
    for (size_t k = 0; k < fds.size(); ++k) {
      if (!open[k]) continue;
      pfds.push_back(pollfd{fds[k], POLLIN, 0});
      which.push_back(k);
    }
    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      reap(true);
      return Status::Internal("reference workers: poll failed");
    }
    for (size_t j = 0; j < pfds.size(); ++j) {
      if (pfds[j].revents == 0) continue;
      const size_t k = which[j];
      const ssize_t r = ::read(fds[k], buf, sizeof(buf));
      if (r > 0) {
        text[k].append(buf, static_cast<size_t>(r));
      } else if (r == 0 || errno != EINTR) {
        open[k] = false;
        --open_count;
      }
    }
  }
  if (!reap(false)) {
    return Status::Internal("reference workers: a worker failed");
  }
  std::vector<std::string> out(n);
  std::vector<bool> seen(n, false);
  for (const std::string& chunk : text) {
    size_t pos = 0;
    while (pos < chunk.size()) {
      size_t end = chunk.find('\n', pos);
      if (end == std::string::npos) end = chunk.size();
      const size_t tab = chunk.find('\t', pos);
      if (tab == std::string::npos || tab > end) {
        return Status::Internal("reference workers: malformed output");
      }
      const size_t i = std::strtoull(chunk.c_str() + pos, nullptr, 10);
      if (i >= n) return Status::Internal("reference workers: bad item");
      out[i] = chunk.substr(tab + 1, end - tab - 1);
      seen[i] = true;
      pos = end + 1;
    }
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
    return Status::Internal("reference workers: missing items");
  }
  return out;
}

}  // namespace perfbench
