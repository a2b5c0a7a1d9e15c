/* hostbench translator input: the paper's Figure 2/3 constructs -- an
   analyzable critical, a single initialising a small scalar, a critical
   that must stay on the lock path, and a reduction loop. */
double expensive(double v);

void directives(void)
{
    int i;
    double count;
    double flag;
    double sumsq;
    double a[2048];

    count = 0.0;
    flag = 0.0;
    sumsq = 0.0;
    #pragma omp parallel shared(count, flag, sumsq, a) private(i)
    {
        #pragma omp for reduction(+: sumsq)
        for (i = 0; i < 2048; i++) {
            sumsq = sumsq + a[i] * a[i];
        }

        #pragma omp critical
        count = count + 1.0;

        #pragma omp single
        flag = 7.0;

        #pragma omp critical
        {
            count = count + expensive(count);
        }

        #pragma omp barrier
    }
}
