// Fixture: raw process termination bypasses the nova_cli exit-code
// contract (0/1/2) and the crash bundle.
#include <cstdlib>

void
bail(bool bad)
{
    if (bad)
        std::exit(2);
}
