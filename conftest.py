def pytest_addoption(parser):
    parser.addoption(
        "--full",
        action="store_true",
        default=False,
        help="also run the 43M-input d=3 cube sweeps (1,290 s on 2 workers)",
    )
