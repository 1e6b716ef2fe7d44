from .entry import main

main()
