// Minimal loopback web server: one epoll server task, one client task,
// files served from MemFs over the simulated socket layer. Compare the
// plain open/read/send loop with the consolidated sendfile path by
// watching crossings and copied bytes (paper §2.2).
//
//   ./examples/webserver
#include <cstdio>
#include <cstring>
#include <thread>

#include "consolidation/newcalls.hpp"
#include "net/net.hpp"
#include "uk/userlib.hpp"

int main() {
  using namespace usk;
  fs::MemFs fsys;
  uk::Kernel kernel(fsys);
  net::Net net(kernel);

  uk::Proc setup(kernel, "setup");
  setup.mkdir("/www", 0755);
  int fd = setup.open("/www/index.html", fs::kOWrOnly | fs::kOCreat);
  const char page[] = "<html><body>hello from the kernel</body></html>\n";
  setup.write(fd, page, sizeof(page) - 1);
  setup.close(fd);

  std::thread server([&] {
    uk::Proc srv(kernel, "webserver");
    uk::Process& p = srv.process();
    int lfd = static_cast<int>(net.sys_socket(p));
    net.sys_bind(p, lfd, 8080);
    net.sys_listen(p, lfd, 8);
    // accept + recv in one crossing, then serve the file kernel-side:
    // the page's bytes never visit user space.
    char req[64] = {};
    int conn = -1;
    consolidation::sys_accept_recv(kernel, p, lfd, req, sizeof(req),
                                   &conn);
    std::printf("[server] request: %s\n", req);
    consolidation::sys_sendfile(kernel, p, conn, "/www/index.html", 0,
                                sizeof(page) - 1);
    srv.close(conn);
    srv.close(lfd);
  });

  uk::Proc cli(kernel, "client");
  uk::Process& p = cli.process();
  int sock = static_cast<int>(net.sys_socket(p));
  while (net.sys_connect(p, sock, 8080) != 0) std::this_thread::yield();
  const char req[] = "GET /www/index.html";
  net.sys_send(p, sock, req, sizeof(req));
  char body[256] = {};
  SysRet n = net.sys_recv(p, sock, body, sizeof(body));
  std::printf("[client] %lld bytes: %s", static_cast<long long>(n), body);
  cli.close(sock);
  server.join();

  uk::BoundaryStats b = kernel.boundary().stats();
  std::printf("crossings=%llu bytes_to_user=%llu (page served in-kernel)\n",
              static_cast<unsigned long long>(b.crossings),
              static_cast<unsigned long long>(b.bytes_to_user));
  return 0;
}
