/* Runs a linked module's `bench_main(n)` on the host CPU and prints its
 * result in decimal: `./prog N`. The module is an object file written by
 * `tpde_core::obj::write_elf_object`; see `native.rs`. */
#include <inttypes.h>
#include <stdio.h>
#include <stdlib.h>

uint64_t bench_main(uint64_t n);

int main(int argc, char **argv) {
    if (argc != 2) {
        fprintf(stderr, "usage: %s N\n", argv[0]);
        return 2;
    }
    uint64_t n = strtoull(argv[1], NULL, 0);
    printf("%" PRIu64 "\n", bench_main(n));
    return 0;
}
